#include "ledger/store.hpp"

#include <cstdio>

#include "crypto/sha256.hpp"
#include "serde/reader.hpp"
#include "serde/writer.hpp"

namespace gpbft::ledger {

namespace {
constexpr char kMagic[] = "GPBFTCHN";
constexpr std::size_t kMagicLen = 8;
}  // namespace

Bytes serialize_chain(const Chain& chain) {
  serde::Writer w;
  w.raw(BytesView(reinterpret_cast<const std::uint8_t*>(kMagic), kMagicLen));
  w.u32(kChainFileVersion);
  w.varint(chain.size());
  for (Height h = 0; h <= chain.height(); ++h) {
    const Bytes block = chain.at(h).encode();
    w.bytes(BytesView(block.data(), block.size()));
  }
  const crypto::Hash256 digest =
      crypto::sha256(BytesView(w.buffer().data(), w.buffer().size()));
  w.raw(digest.view());
  return w.take();
}

Result<Chain> deserialize_chain(BytesView image) {
  if (image.size() < kMagicLen + 4 + 32) return make_error("chain file: truncated");

  // Integrity tail first: sha256 over everything before the final 32 bytes.
  const BytesView body(image.data(), image.size() - 32);
  const crypto::Hash256 expected = crypto::sha256(body);
  crypto::Hash256 stored;
  std::copy(image.end() - 32, image.end(), stored.bytes.begin());
  if (expected != stored) return make_error("chain file: integrity check failed");

  serde::Reader r(body);
  auto magic = r.raw(kMagicLen);
  if (!magic) return make_error(magic.error());
  if (std::string(magic.value().begin(), magic.value().end()) != kMagic) {
    return make_error("chain file: bad magic");
  }
  auto version = r.u32();
  if (!version) return make_error(version.error());
  if (version.value() != kChainFileVersion) {
    return make_error("chain file: unsupported version " + std::to_string(version.value()));
  }

  auto count = r.varint();
  if (!count) return make_error(count.error());
  if (count.value() == 0) return make_error("chain file: no blocks");
  if (count.value() > 10'000'000) return make_error("chain file: implausible block count");

  auto genesis_bytes = r.bytes();
  if (!genesis_bytes) return make_error(genesis_bytes.error());
  auto genesis =
      Block::decode(BytesView(genesis_bytes.value().data(), genesis_bytes.value().size()));
  if (!genesis) return make_error(genesis.error());
  if (genesis.value().header.height != 0) return make_error("chain file: genesis height != 0");

  Chain chain(std::move(genesis.value()));
  for (std::uint64_t i = 1; i < count.value(); ++i) {
    auto block_bytes = r.bytes();
    if (!block_bytes) return make_error(block_bytes.error());
    auto block =
        Block::decode(BytesView(block_bytes.value().data(), block_bytes.value().size()));
    if (!block) return make_error(block.error());
    const std::vector<crypto::Hash256> digests = block.value().tx_digests();
    if (auto appended = chain.append(std::move(block.value()), digests); !appended) {
      return make_error("chain file: block " + std::to_string(i) +
                        " failed validation: " + appended.error());
    }
  }
  if (!r.exhausted()) return make_error("chain file: trailing bytes");
  return chain;
}

Result<void> save_chain(const Chain& chain, const std::string& path) {
  const Bytes image = serialize_chain(chain);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return make_error("chain file: cannot open " + tmp);
  const std::size_t written = std::fwrite(image.data(), 1, image.size(), file);
  const bool flushed = std::fclose(file) == 0;
  if (written != image.size() || !flushed) {
    std::remove(tmp.c_str());
    return make_error("chain file: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return make_error("chain file: rename to " + path + " failed");
  }
  return {};
}

Result<Chain> load_chain(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return make_error("chain file: cannot open " + path);
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(file);
    return make_error("chain file: cannot stat " + path);
  }
  Bytes image(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(image.data(), 1, image.size(), file);
  std::fclose(file);
  if (read != image.size()) return make_error("chain file: short read from " + path);
  return deserialize_chain(BytesView(image.data(), image.size()));
}

}  // namespace gpbft::ledger
