// Crypto known-answer and property tests: SHA-256 (NIST FIPS 180-4 vectors),
// HMAC-SHA256 (RFC 4231 vectors), Merkle trees, authenticators, addresses.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "crypto/address.hpp"
#include "crypto/authenticator.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"

namespace gpbft::crypto {
namespace {

// --- SHA-256 known answers -----------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(sha256("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(ctx.finalize().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string message = "the quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (char c : message) ctx.update(std::string_view(&c, 1));
  EXPECT_EQ(ctx.finalize(), sha256(message));
}

TEST(Sha256, BoundarySizesConsistent) {
  // Exercise the padding logic at block boundaries (55/56/63/64/65 bytes).
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    const std::string message(len, 'x');
    Sha256 a;
    a.update(message);
    Sha256 b;
    b.update(message.substr(0, len / 2));
    b.update(message.substr(len / 2));
    EXPECT_EQ(a.finalize(), b.finalize()) << "length " << len;
  }
}

TEST(Sha256, OneShotPaddingAtBoundaryLengths) {
  // 55 bytes is the longest message whose padding fits one block; 56 and 63
  // spill the length into a second block; 64/119/120 repeat the pattern one
  // block later. Expected digests are independent (Python hashlib) answers
  // for the bytes (7i + 3) mod 256.
  const std::array<std::pair<std::size_t, const char*>, 6> cases = {{
      {55, "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b"},
      {56, "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27"},
      {63, "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055"},
      {64, "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241"},
      {119, "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e"},
      {120, "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5"},
  }};
  for (const auto& [len, expected] : cases) {
    Bytes message(len);
    for (std::size_t i = 0; i < len; ++i) message[i] = static_cast<std::uint8_t>(i * 7 + 3);
    EXPECT_EQ(sha256(BytesView(message.data(), message.size())).hex(), expected)
        << "length " << len;
    Sha256 split;  // buffered tail of every possible length at finalize
    for (std::uint8_t byte : message) split.update(BytesView(&byte, 1));
    EXPECT_EQ(split.finalize().hex(), expected) << "length " << len << ", byte-wise";
  }
}

TEST(Sha256, Sha256dDiffersFromSingle) {
  const Bytes data = {1, 2, 3};
  EXPECT_NE(sha256d(data), sha256(BytesView(data.data(), data.size())));
}

// --- SHA-256 compress kernels ----------------------------------------------------
// Both kernels are called directly through crypto::detail, so each one is
// checked whichever of them Sha256 dispatches to on this CPU. The padding
// here is built the long way (copy, append, compress all blocks at once),
// independently of Sha256::finalize.

using Kernel = void (*)(std::array<std::uint32_t, 8>&, const std::uint8_t*, std::size_t);

constexpr std::array<std::uint32_t, 8> kIv = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

Hash256 digest_with(Kernel kernel, BytesView message) {
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  std::array<std::uint32_t, 8> state = kIv;
  kernel(state, padded.data(), padded.size() / 64);
  Hash256 out;
  for (std::size_t i = 0; i < 32; ++i) {
    out.bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

Hash256 digest_with(Kernel kernel, std::string_view message) {
  return digest_with(kernel,
                     BytesView(reinterpret_cast<const std::uint8_t*>(message.data()), message.size()));
}

Bytes random_bytes(Rng& rng, std::size_t len) {
  Bytes out(len);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

struct KernelCase {
  const char* name;
  Kernel kernel;
  bool hardware;
};

void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

class Sha256Kernel : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (GetParam().hardware && !detail::sha_ni_supported()) {
      GTEST_SKIP() << "this CPU has no SHA-NI (CPUID leaf 7 EBX bit 29, SSSE3, SSE4.1); "
                      "the hardware kernel is not exercised on this host";
    }
  }
};

TEST_P(Sha256Kernel, FipsVectors) {
  const Kernel kernel = GetParam().kernel;
  EXPECT_EQ(digest_with(kernel, "").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_with(kernel, "abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest_with(kernel, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(digest_with(kernel,
                        "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                        "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")
                .hex(),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(digest_with(kernel, std::string(1'000'000, 'a')).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Kernel, MatchesSha256AcrossRandomSplits) {
  // Lengths 0..4096 with up to four update() calls at random split points:
  // Sha256 (whichever kernel it dispatches to, plus its one-shot padding)
  // must agree with this kernel fed the whole padded message in one call.
  Rng rng(0x5eed'5a256);
  const Kernel kernel = GetParam().kernel;
  for (std::size_t len = 0; len <= 4096; ++len) {
    const Bytes message = random_bytes(rng, len);
    Sha256 ctx;
    std::size_t offset = 0;
    for (std::uint64_t cuts = rng.uniform(0, 3); cuts > 0; --cuts) {
      const std::size_t step = static_cast<std::size_t>(rng.uniform(0, len - offset));
      ctx.update(BytesView(message.data() + offset, step));
      offset += step;
    }
    ctx.update(BytesView(message.data() + offset, len - offset));
    ASSERT_EQ(ctx.finalize(), digest_with(kernel, BytesView(message.data(), len)))
        << "length " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256Kernel,
                         ::testing::Values(KernelCase{"scalar", detail::compress_scalar, false},
                                           KernelCase{"sha_ni", detail::compress_sha_ni, true}),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(Sha256KernelCrossCheck, ScalarAndShaNiAgreeFromRandomStates) {
  if (!detail::sha_ni_supported()) {
    GTEST_SKIP() << "this CPU has no SHA-NI; nothing to cross-check the scalar kernel against";
  }
  Rng rng(0xc0ffee);
  for (int trial = 0; trial < 500; ++trial) {
    std::array<std::uint32_t, 8> scalar;
    for (std::uint32_t& word : scalar) word = static_cast<std::uint32_t>(rng.next());
    std::array<std::uint32_t, 8> hardware = scalar;
    const std::size_t blocks = static_cast<std::size_t>(rng.uniform(1, 8));
    const Bytes data = random_bytes(rng, blocks * 64);
    detail::compress_scalar(scalar, data.data(), blocks);
    detail::compress_sha_ni(hardware, data.data(), blocks);
    ASSERT_EQ(scalar, hardware) << "trial " << trial << ", " << blocks << " blocks";
  }
}

TEST(Hash256, HexAndShortHex) {
  Hash256 h;
  h.bytes[0] = 0xab;
  h.bytes[1] = 0xcd;
  EXPECT_EQ(h.hex().substr(0, 4), "abcd");
  EXPECT_EQ(h.short_hex(), "abcd0000");
  EXPECT_FALSE(h.is_zero());
  EXPECT_TRUE(Hash256{}.is_zero());
}

// --- HMAC-SHA256 (RFC 4231) -------------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const std::string data = "Hi There";
  const Hash256 mac = hmac_sha256(BytesView(key.data(), key.size()),
                                  BytesView(reinterpret_cast<const std::uint8_t*>(data.data()),
                                            data.size()));
  EXPECT_EQ(mac.hex(), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string data = "what do ya want for nothing?";
  const Hash256 mac =
      hmac_sha256(BytesView(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
                  BytesView(reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(mac.hex(), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  const Hash256 mac =
      hmac_sha256(BytesView(key.data(), key.size()), BytesView(data.data(), data.size()));
  EXPECT_EQ(mac.hex(), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Hash256 mac =
      hmac_sha256(BytesView(key.data(), key.size()),
                  BytesView(reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(mac.hex(), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, ConstantTimeEqual) {
  const Bytes a{1, 2, 3}, b{1, 2, 3}, c{1, 2, 4}, d{1, 2};
  EXPECT_TRUE(constant_time_equal(BytesView(a.data(), a.size()), BytesView(b.data(), b.size())));
  EXPECT_FALSE(constant_time_equal(BytesView(a.data(), a.size()), BytesView(c.data(), c.size())));
  EXPECT_FALSE(constant_time_equal(BytesView(a.data(), a.size()), BytesView(d.data(), d.size())));
}

// --- Merkle tree ---------------------------------------------------------------------

std::vector<Hash256> make_leaves(std::size_t n, std::uint64_t seed = 0) {
  std::vector<Hash256> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(sha256("leaf-" + std::to_string(seed) + "-" + std::to_string(i)));
  }
  return leaves;
}

TEST(Merkle, EmptyTreeHasStableRoot) {
  MerkleTree a({}), b({});
  EXPECT_EQ(a.root(), b.root());
}

TEST(Merkle, SingleLeafProofVerifies) {
  const auto leaves = make_leaves(1);
  MerkleTree tree(leaves);
  EXPECT_TRUE(MerkleTree::verify(leaves[0], tree.prove(0), tree.root()));
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  auto leaves = make_leaves(8);
  const Hash256 original = MerkleTree::compute_root(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i].bytes[0] ^= 0x01;
    EXPECT_NE(MerkleTree::compute_root(mutated), original) << "leaf " << i;
  }
}

TEST(Merkle, RootDependsOnOrder) {
  auto leaves = make_leaves(4);
  auto swapped = leaves;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(MerkleTree::compute_root(leaves), MerkleTree::compute_root(swapped));
}

TEST(Merkle, ProofFailsForWrongLeaf) {
  const auto leaves = make_leaves(6);
  MerkleTree tree(leaves);
  const MerkleProof proof = tree.prove(2);
  EXPECT_TRUE(MerkleTree::verify(leaves[2], proof, tree.root()));
  EXPECT_FALSE(MerkleTree::verify(leaves[3], proof, tree.root()));
}

TEST(Merkle, ProofFailsForTamperedStep) {
  const auto leaves = make_leaves(6);
  MerkleTree tree(leaves);
  MerkleProof proof = tree.prove(4);
  proof[0].sibling.bytes[5] ^= 0xff;
  EXPECT_FALSE(MerkleTree::verify(leaves[4], proof, tree.root()));
}

class MerkleSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizes, AllProofsVerify) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n, n);
  MerkleTree tree(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(MerkleTree::verify(leaves[i], tree.prove(i), tree.root())) << "leaf " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100));

// --- addresses --------------------------------------------------------------------------

TEST(Address, DeterministicPerNode) {
  EXPECT_EQ(address_for_node(NodeId{1}), address_for_node(NodeId{1}));
  EXPECT_NE(address_for_node(NodeId{1}), address_for_node(NodeId{2}));
}

TEST(Address, HexIs40Chars) { EXPECT_EQ(address_for_node(NodeId{9}).hex().size(), 40u); }

// --- authenticators ----------------------------------------------------------------------

TEST(Authenticator, VerifyAcceptsGenuineTag) {
  KeyRegistry keys(77);
  const Bytes payload = {9, 8, 7};
  const Authenticator auth =
      keys.authenticate(NodeId{1}, {NodeId{2}, NodeId{3}}, BytesView(payload.data(), payload.size()));
  EXPECT_TRUE(keys.verify(auth, NodeId{2}, BytesView(payload.data(), payload.size())));
  EXPECT_TRUE(keys.verify(auth, NodeId{3}, BytesView(payload.data(), payload.size())));
}

TEST(Authenticator, VerifyRejectsTamperedPayload) {
  KeyRegistry keys(77);
  const Bytes payload = {9, 8, 7};
  Bytes tampered = payload;
  tampered[0] ^= 1;
  const Authenticator auth =
      keys.authenticate(NodeId{1}, {NodeId{2}}, BytesView(payload.data(), payload.size()));
  EXPECT_FALSE(keys.verify(auth, NodeId{2}, BytesView(tampered.data(), tampered.size())));
}

TEST(Authenticator, VerifyRejectsWrongReceiver) {
  KeyRegistry keys(77);
  const Bytes payload = {1};
  const Authenticator auth =
      keys.authenticate(NodeId{1}, {NodeId{2}}, BytesView(payload.data(), payload.size()));
  EXPECT_FALSE(keys.verify(auth, NodeId{4}, BytesView(payload.data(), payload.size())));
}

TEST(Authenticator, DirectionalityMatters) {
  // A->B tag must not verify as a B->A tag even though the session key is
  // symmetric.
  KeyRegistry keys(77);
  const Bytes payload = {5, 5};
  Authenticator forward =
      keys.authenticate(NodeId{1}, {NodeId{2}}, BytesView(payload.data(), payload.size()));
  Authenticator reversed = forward;
  reversed.sender = NodeId{2};
  reversed.tags[0].receiver = NodeId{1};
  EXPECT_FALSE(keys.verify(reversed, NodeId{1}, BytesView(payload.data(), payload.size())));
}

TEST(Authenticator, SessionKeySymmetric) {
  KeyRegistry keys(123);
  EXPECT_EQ(keys.session_key(NodeId{3}, NodeId{9}), keys.session_key(NodeId{9}, NodeId{3}));
}

TEST(Authenticator, DifferentRegistrySeedsProduceDifferentKeys) {
  KeyRegistry a(1), b(2);
  EXPECT_NE(a.identity_key(NodeId{1}), b.identity_key(NodeId{1}));
}

TEST(Authenticator, WireSizeAccountsEntries) {
  KeyRegistry keys(1);
  const Bytes payload = {1};
  const Authenticator auth = keys.authenticate(
      NodeId{1}, {NodeId{2}, NodeId{3}, NodeId{4}}, BytesView(payload.data(), payload.size()));
  EXPECT_EQ(auth.wire_size(), 8 + 3 * 16u);
}

// --- HmacKey precomputed context --------------------------------------------------

// The context must be bit-identical to the one-shot function on the RFC 4231
// vectors (including the >block-size key, which exercises the key-hashing
// path in the pad precomputation).
TEST(HmacKey, MatchesOneShotOnRfc4231Vectors) {
  struct Vector {
    Bytes key;
    Bytes data;
  };
  const std::string jefe = "Jefe";
  const std::string nothing = "what do ya want for nothing?";
  const std::string long_key_data = "Test Using Larger Than Block-Size Key - Hash Key First";
  std::vector<Vector> vectors;
  vectors.push_back({Bytes(20, 0x0b), Bytes{'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'}});
  vectors.push_back({Bytes(jefe.begin(), jefe.end()), Bytes(nothing.begin(), nothing.end())});
  vectors.push_back({Bytes(20, 0xaa), Bytes(50, 0xdd)});
  vectors.push_back({Bytes(131, 0xaa), Bytes(long_key_data.begin(), long_key_data.end())});
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    const BytesView key(vectors[i].key.data(), vectors[i].key.size());
    const BytesView data(vectors[i].data.data(), vectors[i].data.size());
    EXPECT_EQ(HmacKey(key).mac(data), hmac_sha256(key, data)) << "vector " << i;
  }
}

TEST(HmacKey, MatchesOneShotAcrossKeyAndDataSizes) {
  // Key lengths straddling the SHA-256 block size (64) and data lengths
  // straddling its padding boundaries.
  for (const std::size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 131u}) {
    const Bytes key(key_len, static_cast<std::uint8_t>(0x42 + key_len));
    const HmacKey ctx(BytesView(key.data(), key.size()));
    for (const std::size_t data_len : {0u, 1u, 55u, 56u, 64u, 65u, 300u}) {
      const Bytes data(data_len, static_cast<std::uint8_t>(data_len));
      const BytesView view(data.data(), data.size());
      EXPECT_EQ(ctx.mac(view), hmac_sha256(BytesView(key.data(), key.size()), view))
          << "key " << key_len << " data " << data_len;
    }
  }
}

TEST(HmacKey, ContextIsReusable) {
  // mac() clones the pad mid-states; the context itself never mutates, so
  // repeated calls (the whole point of the precomputation) stay identical.
  const Bytes key(32, 0x7f);
  const HmacKey ctx(BytesView(key.data(), key.size()));
  const Bytes data{1, 2, 3, 4};
  const Hash256 first = ctx.mac(BytesView(data.data(), data.size()));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ctx.mac(BytesView(data.data(), data.size())), first);
  }
}

TEST(HmacKey, PartsStreamEqualsConcatenation) {
  const Bytes key(32, 0x11);
  const HmacKey ctx(BytesView(key.data(), key.size()));
  Bytes whole;
  for (std::size_t i = 0; i < 200; ++i) whole.push_back(static_cast<std::uint8_t>(i * 7));
  const Hash256 expected = ctx.mac(BytesView(whole.data(), whole.size()));
  for (const std::size_t split : {0u, 1u, 63u, 64u, 100u, 199u, 200u}) {
    const std::array<BytesView, 2> parts{BytesView(whole.data(), split),
                                         BytesView(whole.data() + split, whole.size() - split)};
    EXPECT_EQ(ctx.mac(std::span<const BytesView>(parts.data(), parts.size())), expected)
        << "split " << split;
  }
  // Degenerate streams: empty parts interleaved must not change the digest.
  const std::array<BytesView, 4> padded{BytesView(), BytesView(whole.data(), whole.size()),
                                        BytesView(), BytesView()};
  EXPECT_EQ(ctx.mac(std::span<const BytesView>(padded.data(), padded.size())), expected);
}

// --- streamed tag vs historical materialized input ----------------------------------

TEST(Authenticator, StreamedTagMatchesMaterializedInput) {
  // The seal hot path streams u64(sender) || varint(len) || payload into
  // the HMAC. This pins bit-compatibility against the historical code that
  // materialized that exact buffer per receiver — the goldens depend on it.
  KeyRegistry keys(2024);
  const NodeId sender{3};
  const NodeId receiver{11};
  for (const std::size_t len : {0u, 1u, 0x7fu, 0x80u, 300u}) {  // varint width changes at 0x80
    Bytes payload(len);
    for (std::size_t i = 0; i < len; ++i) payload[i] = static_cast<std::uint8_t>(i ^ len);

    Bytes materialized;
    std::uint64_t sender_le = sender.value;
    for (int i = 0; i < 8; ++i) {
      materialized.push_back(static_cast<std::uint8_t>(sender_le & 0xffu));
      sender_le >>= 8;
    }
    std::uint64_t v = len;
    while (v >= 0x80) {
      materialized.push_back(static_cast<std::uint8_t>(v) | 0x80u);
      v >>= 7;
    }
    materialized.push_back(static_cast<std::uint8_t>(v));
    materialized.insert(materialized.end(), payload.begin(), payload.end());

    const Hash256 reference = hmac_sha256(keys.session_key(sender, receiver).view(),
                                          BytesView(materialized.data(), materialized.size()));
    const std::array<BytesView, 1> parts{BytesView(payload.data(), payload.size())};
    const auto tag = keys.tag(sender, receiver, std::span<const BytesView>(parts.data(), 1));
    EXPECT_TRUE(std::equal(tag.begin(), tag.end(), reference.bytes.begin())) << "len " << len;
  }
}

TEST(Authenticator, MultiPartTagEqualsSinglePartTag) {
  KeyRegistry keys(55);
  Bytes body(96);
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<std::uint8_t>(i);
  const std::array<BytesView, 1> one{BytesView(body.data(), body.size())};
  const auto whole = keys.tag(NodeId{1}, NodeId{2}, std::span<const BytesView>(one.data(), 1));
  const std::array<BytesView, 3> three{BytesView(body.data(), 10), BytesView(body.data() + 10, 50),
                                       BytesView(body.data() + 60, 36)};
  const auto split = keys.tag(NodeId{1}, NodeId{2}, std::span<const BytesView>(three.data(), 3));
  EXPECT_EQ(whole, split);
}

// --- registry caches under concurrent access -----------------------------------------

TEST(Authenticator, RegistryIsConsistentUnderConcurrentDerivation) {
  // A const KeyRegistry is shareable across threads. Hammer the
  // identity/session caches from several threads on overlapping links;
  // every derived value must equal the serial one (cache contents are pure
  // functions of the seed — population order must not matter). Run under
  // the TSan CI leg, this is also the data-race probe for the caches.
  KeyRegistry keys(909);
  const Bytes payload = {1, 2, 3, 4, 5};
  const std::array<BytesView, 1> parts{BytesView(payload.data(), payload.size())};

  KeyRegistry serial(909);
  std::vector<std::array<std::uint8_t, 8>> expected;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    for (std::uint64_t r = 1; r <= 6; ++r) {
      if (s == r) continue;
      expected.push_back(serial.tag(NodeId{s}, NodeId{r}, std::span<const BytesView>(parts.data(), 1)));
    }
  }

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&keys, &parts, &expected, &mismatch]() {
      std::size_t idx = 0;
      for (std::uint64_t s = 1; s <= 6; ++s) {
        for (std::uint64_t r = 1; r <= 6; ++r) {
          if (s == r) continue;
          const auto tag = keys.tag(NodeId{s}, NodeId{r}, std::span<const BytesView>(parts.data(), 1));
          if (tag != expected[idx]) mismatch.store(true);
          ++idx;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(mismatch.load());
}

}  // namespace
}  // namespace gpbft::crypto
