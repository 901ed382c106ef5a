// Property-style tests: randomized datatype trees, fragment-size sweeps,
// random Python-object graphs, corrupt-input fuzzing, and the transport's
// region walker against a bytewise reference. Seeds are fixed per
// test-case index, so failures reproduce deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/crc32.hpp"
#include "dt/convertor.hpp"
#include "core/builtin_serialize.hpp"
#include "p2p/universe.hpp"
#include "pysim/pickle.hpp"
#include "test_util.hpp"
#include "ucx/engine.hpp"
#include "ucx/seq_window.hpp"

namespace mpicd {
namespace {

// --- Random datatype trees -----------------------------------------------------

dt::TypeRef random_type(std::mt19937& rng, int depth) {
    std::uniform_int_distribution<int> leaf_pick(0, 3);
    if (depth == 0) {
        switch (leaf_pick(rng)) {
            case 0: return dt::type_int32();
            case 1: return dt::type_double();
            case 2: return dt::type_byte();
            default: return dt::type_int64();
        }
    }
    std::uniform_int_distribution<int> kind_pick(0, 4);
    std::uniform_int_distribution<Count> small(1, 4);
    auto base = random_type(rng, depth - 1);
    switch (kind_pick(rng)) {
        case 0: return dt::Datatype::contiguous(small(rng), base);
        case 1: {
            const Count blocklen = small(rng);
            const Count stride = blocklen + small(rng); // positive gap
            return dt::Datatype::vector(small(rng), blocklen, stride, base);
        }
        case 2: {
            const Count nblocks = small(rng);
            std::vector<Count> blocklens, displs;
            Count at = 0;
            for (Count b = 0; b < nblocks; ++b) {
                const Count len = small(rng);
                blocklens.push_back(len);
                displs.push_back(at);
                at += len + small(rng);
            }
            return dt::Datatype::indexed(blocklens, displs, base);
        }
        case 3: {
            // Struct of the base plus an int32 at a non-overlapping offset.
            const Count blocklens[] = {1, 1};
            const Count displs[] = {0, base->ub() + 4};
            const dt::TypeRef types[] = {base, dt::type_int32()};
            return dt::Datatype::struct_(blocklens, displs, types);
        }
        default:
            return dt::Datatype::resized(base, base->lb(),
                                         base->extent() + 8 * small(rng));
    }
}

class RandomTypeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RandomTypeRoundTrip, PackUnpackIsIdentityOnSelectedBytes) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 13u);
    auto type = random_type(rng, 3);
    ASSERT_NE(type, nullptr);
    ASSERT_EQ(type->commit(), Status::success);
    const Count count = 1 + GetParam() % 4;
    const Count span = type->extent() * count + type->true_extent() + 64;

    // Source buffer with a pattern; pack, then unpack into a fresh buffer.
    ByteVec src = test::pattern_bytes(static_cast<std::size_t>(span),
                                      static_cast<std::uint32_t>(GetParam()));
    ByteVec dst(static_cast<std::size_t>(span), std::byte{0});
    // Anchor at an offset that keeps negative lb in range.
    const Count anchor = std::max<Count>(0, -type->true_lb());

    ByteVec packed(static_cast<std::size_t>(type->size() * count));
    Count used = 0;
    ASSERT_EQ(dt::Convertor::pack_all(type, src.data() + anchor, count, packed, &used),
              Status::success);
    ASSERT_EQ(used, type->size() * count);
    ASSERT_EQ(dt::Convertor::unpack_all(type, dst.data() + anchor, count, packed),
              Status::success);

    // Every byte covered by a segment must match; others stay zero.
    std::vector<bool> covered(static_cast<std::size_t>(span), false);
    for (Count e = 0; e < count; ++e) {
        for (const auto& seg : type->segments()) {
            const Count start = anchor + e * type->extent() + seg.offset;
            for (Count b = 0; b < seg.len; ++b)
                covered[static_cast<std::size_t>(start + b)] = true;
        }
    }
    for (std::size_t i = 0; i < covered.size(); ++i) {
        if (covered[i]) {
            EXPECT_EQ(dst[i], src[i]) << "selected byte " << i;
        } else {
            EXPECT_EQ(dst[i], std::byte{0}) << "untouched byte " << i;
        }
    }
}

TEST_P(RandomTypeRoundTrip, FragmentedPackMatchesMonolithic) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729u + 7u);
    auto type = random_type(rng, 2);
    ASSERT_EQ(type->commit(), Status::success);
    const Count count = 3;
    const Count span = type->extent() * count + type->true_extent() + 64;
    ByteVec buf = test::pattern_bytes(static_cast<std::size_t>(span), 99);
    const Count anchor = std::max<Count>(0, -type->true_lb());

    ByteVec whole(static_cast<std::size_t>(type->size() * count));
    Count used = 0;
    ASSERT_EQ(dt::Convertor::pack_all(type, buf.data() + anchor, count, whole, &used),
              Status::success);

    std::uniform_int_distribution<std::size_t> frag_pick(1, 17);
    dt::Convertor cv(type, buf.data() + anchor, count);
    ByteVec stream;
    while (!cv.finished()) {
        ByteVec frag(frag_pick(rng));
        Count got = 0;
        ASSERT_EQ(cv.pack(frag, &got), Status::success);
        stream.insert(stream.end(), frag.begin(), frag.begin() + got);
    }
    EXPECT_EQ(stream, whole);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTypeRoundTrip, ::testing::Range(0, 24));

// --- Transport size sweep -------------------------------------------------------

class TransferSizes : public ::testing::TestWithParam<Count> {};

TEST_P(TransferSizes, BytesRoundTripAcrossProtocols) {
    const Count n = GetParam();
    p2p::Universe uni(2, test::test_params());
    const ByteVec src = test::pattern_bytes(static_cast<std::size_t>(n),
                                            static_cast<std::uint32_t>(n + 1));
    ByteVec dst(static_cast<std::size_t>(n));
    auto rr = uni.comm(1).irecv_bytes(dst.data(), n, 0, 3);
    auto rs = uni.comm(0).isend_bytes(src.data(), n, 1, 3);
    const auto st = rr.wait();
    EXPECT_EQ(st.status, Status::success);
    EXPECT_EQ(st.bytes, n);
    EXPECT_EQ(rs.wait().status, Status::success);
    EXPECT_EQ(src, dst);
}

TEST_P(TransferSizes, CustomVectorRoundTrip) {
    const Count n = GetParam();
    if (n < 8) GTEST_SKIP();
    using Sub = std::vector<std::int32_t>;
    p2p::Universe uni(2, test::test_params());
    // Split n bytes across 4 sub-vectors (int-aligned).
    std::vector<Sub> send(4), recv(4);
    const Count per = (n / 4) / 4 * 4;
    for (std::size_t i = 0; i < 4; ++i) {
        send[i].assign(static_cast<std::size_t>(std::max<Count>(1, per / 4)),
                       static_cast<std::int32_t>(i * 100));
        recv[i].resize(send[i].size());
    }
    const auto& type = core::custom_datatype_of<Sub>();
    auto rr = uni.comm(1).irecv_custom(recv.data(), 4, type, 0, 4);
    auto rs = uni.comm(0).isend_custom(send.data(), 4, type, 1, 4);
    EXPECT_EQ(rr.wait().status, Status::success);
    EXPECT_EQ(rs.wait().status, Status::success);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(send[i], recv[i]);
}

INSTANTIATE_TEST_SUITE_P(PowersAndEdges, TransferSizes,
                         ::testing::Values<Count>(0, 1, 7, 64, 1024, 32767, 32768,
                                                  32769, 65536, 262144, 1048576,
                                                  1048577),
                         [](const auto& info) {
                             return "n" + std::to_string(info.param);
                         });

// --- Random Python objects -------------------------------------------------------

pysim::PyValue random_pyvalue(std::mt19937& rng, int depth) {
    std::uniform_int_distribution<int> pick(0, depth > 0 ? 7 : 4);
    switch (pick(rng)) {
        case 0: return pysim::PyValue();
        case 1: return pysim::PyValue(rng() % 2 == 0);
        case 2: return pysim::PyValue(static_cast<std::int64_t>(rng()) - (1 << 30));
        case 3: return pysim::PyValue(static_cast<double>(rng()) / 7.0);
        case 4: {
            std::string s;
            const std::size_t len = rng() % 40;
            for (std::size_t i = 0; i < len; ++i)
                s.push_back(static_cast<char>('a' + rng() % 26));
            return pysim::PyValue(std::move(s));
        }
        case 5: {
            pysim::PyList items;
            const std::size_t len = rng() % 4;
            for (std::size_t i = 0; i < len; ++i)
                items.push_back(random_pyvalue(rng, depth - 1));
            return pysim::PyValue(std::move(items));
        }
        case 6: {
            pysim::PyDict d;
            const std::size_t len = rng() % 4;
            for (std::size_t i = 0; i < len; ++i)
                d.emplace_back("k" + std::to_string(i), random_pyvalue(rng, depth - 1));
            return pysim::PyValue(std::move(d));
        }
        default: {
            const pysim::DType dtypes[] = {pysim::DType::u8, pysim::DType::i32,
                                           pysim::DType::f64};
            return pysim::PyValue(pysim::NdArray::pattern(
                dtypes[rng() % 3], {static_cast<Count>(rng() % 3000)}, rng()));
        }
    }
}

class RandomPickle : public ::testing::TestWithParam<int> {};

TEST_P(RandomPickle, InBandRoundTrip) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 2654435761u + 1u);
    const auto v = random_pyvalue(rng, 3);
    pysim::Pickled p;
    ASSERT_EQ(pysim::dumps(v, pysim::DumpOptions{}, &p), Status::success);
    pysim::PyValue back;
    ASSERT_EQ(pysim::loads(p.stream, &back), Status::success);
    EXPECT_EQ(v, back);
}

TEST_P(RandomPickle, OutOfBandTwoPhaseRoundTrip) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 48271u + 11u);
    const auto v = random_pyvalue(rng, 3);
    pysim::DumpOptions opts;
    opts.out_of_band = true;
    opts.oob_threshold = 256;
    pysim::Pickled p;
    ASSERT_EQ(pysim::dumps(v, opts, &p), Status::success);
    pysim::PyValue back;
    std::vector<IovEntry> fill;
    ASSERT_EQ(pysim::loads_alloc(p.stream, &back, &fill), Status::success);
    ASSERT_EQ(fill.size(), p.oob.size());
    for (std::size_t i = 0; i < fill.size(); ++i) {
        ASSERT_EQ(fill[i].len, p.oob[i].len);
        std::memcpy(fill[i].base, p.oob[i].data, static_cast<std::size_t>(fill[i].len));
    }
    EXPECT_EQ(v, back);
}

TEST_P(RandomPickle, TruncatedStreamsNeverCrash) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 6364136223846793005ull + 3u);
    const auto v = random_pyvalue(rng, 3);
    pysim::Pickled p;
    ASSERT_EQ(pysim::dumps(v, pysim::DumpOptions{}, &p), Status::success);
    // Every strict prefix must fail cleanly (or parse to a smaller value —
    // never crash or succeed with trailing garbage).
    for (std::size_t cut = 0; cut < p.stream.size();
         cut += 1 + p.stream.size() / 37) {
        pysim::PyValue out;
        const Status st =
            pysim::loads(ConstBytes(p.stream.data(), cut), &out);
        EXPECT_NE(st, Status::success) << "prefix " << cut;
    }
}

TEST_P(RandomPickle, RandomBytesNeverCrash) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 69069u + 1u);
    ByteVec junk(256 + rng() % 1024);
    for (auto& b : junk) b = static_cast<std::byte>(rng());
    pysim::PyValue out;
    (void)pysim::loads(junk, &out); // status may be anything; must not crash
    std::vector<IovEntry> fill;
    (void)pysim::loads_alloc(junk, &out, &fill);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPickle, ::testing::Range(0, 16));

// --- CRC-32 detection properties (reliable-delivery protocol) ------------------

// Any single-bit flip anywhere in a message changes the CRC: the reliable
// protocol's corruption detector can never false-negative on the fault
// injector's single-bit-flip fault class.
TEST(CrcProperty, SingleBitFlipAlwaysDetected) {
    std::mt19937 rng(0xC2C5u);
    for (int trial = 0; trial < 64; ++trial) {
        ByteVec msg(1 + rng() % 512);
        for (auto& b : msg) b = static_cast<std::byte>(rng());
        const std::uint32_t clean = crc32(msg.data(), msg.size());
        // Exhaustive over small messages, sampled over large ones.
        const std::size_t stride = msg.size() > 64 ? 1 + msg.size() / 61 : 1;
        for (std::size_t byte = 0; byte < msg.size(); byte += stride) {
            for (int bit = 0; bit < 8; ++bit) {
                msg[byte] ^= static_cast<std::byte>(1u << bit);
                EXPECT_NE(crc32(msg.data(), msg.size()), clean)
                    << "byte " << byte << " bit " << bit;
                msg[byte] ^= static_cast<std::byte>(1u << bit);
            }
        }
        // Restored message must match the original CRC again.
        EXPECT_EQ(crc32(msg.data(), msg.size()), clean);
    }
}

// Single-byte corruption (any replacement value) is likewise always caught.
TEST(CrcProperty, SingleByteCorruptionAlwaysDetected) {
    std::mt19937 rng(0xBADCu);
    for (int trial = 0; trial < 128; ++trial) {
        ByteVec msg(1 + rng() % 256);
        for (auto& b : msg) b = static_cast<std::byte>(rng());
        const std::uint32_t clean = crc32(msg.data(), msg.size());
        const std::size_t at = rng() % msg.size();
        const std::byte old = msg[at];
        std::byte repl = static_cast<std::byte>(rng());
        if (repl == old) repl ^= std::byte{1};
        msg[at] = repl;
        EXPECT_NE(crc32(msg.data(), msg.size()), clean) << "trial " << trial;
    }
}

// Incremental (seeded) computation equals one-shot computation — the
// worker CRCs kind/seq, header and payload in separate calls.
TEST(CrcProperty, IncrementalMatchesOneShot) {
    std::mt19937 rng(0x1234u);
    for (int trial = 0; trial < 32; ++trial) {
        ByteVec msg(2 + rng() % 300);
        for (auto& b : msg) b = static_cast<std::byte>(rng());
        const std::uint32_t whole = crc32(msg.data(), msg.size());
        const std::size_t cut = 1 + rng() % (msg.size() - 1);
        const std::uint32_t part = crc32(msg.data() + cut, msg.size() - cut,
                                         crc32(msg.data(), cut));
        EXPECT_EQ(part, whole);
    }
}

// Reference model: the one-table (Sarwate) bytewise loop both kernels
// replaced. Every output of crc32() and of each kernel must equal it bit
// for bit.
std::uint32_t crc32_bytewise(const void* data, std::size_t n, std::uint32_t seed) {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// crc32() (whichever kernel it dispatches to), the slicing-by-8 kernel and,
// where the CPU has carry-less multiply, the folding kernel called directly.
// The lengths cover the fold's entry at 64 bytes, every 16-byte step, every
// n % 16 tail and 1-16 passes of its four-lane loop.
TEST(CrcProperty, MatchesBytewiseReference) {
    using Kernel = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);
    struct NamedKernel {
        const char* name;
        Kernel fn;
        std::size_t min_len; // shorter inputs are not this kernel's to take
    };
    std::vector<NamedKernel> kernels = {{"crc32", &crc32, 0},
                                        {"slice8", &detail::crc32_slice8, 0}};
    const bool fold = detail::crc32_fold_supported();
    if (fold) kernels.push_back({"fold", &detail::crc32_fold, detail::kCrc32FoldMin});
    // A piece below the kernel's minimum goes through slicing-by-8, as
    // crc32() would route it.
    const auto run = [](const NamedKernel& k, const std::byte* p, std::size_t n,
                        std::uint32_t seed) {
        return n >= k.min_len ? k.fn(p, n, seed) : detail::crc32_slice8(p, n, seed);
    };

    std::mt19937 rng(0x5115u);
    // 16 spare bytes so every length can start at each of the 16 alignments.
    constexpr std::size_t kBig = (std::size_t{1} << 20) + 13;
    ByteVec buf(kBig + 16);
    for (auto& b : buf) b = static_cast<std::byte>(rng());

    // Every length 0-1100 at all 16 start alignments, from the default seed
    // and a random non-zero one.
    for (std::size_t len = 0; len <= 1100; ++len) {
        for (std::size_t align = 0; align < 16; ++align) {
            const std::byte* p = buf.data() + align;
            const std::uint32_t seed = rng() | 1u;
            const std::uint32_t want0 = crc32_bytewise(p, len, 0);
            const std::uint32_t want = crc32_bytewise(p, len, seed);
            for (const NamedKernel& k : kernels) {
                if (len < k.min_len) continue;
                EXPECT_EQ(k.fn(p, len, 0), want0)
                    << k.name << " len " << len << " align " << align;
                EXPECT_EQ(k.fn(p, len, seed), want)
                    << k.name << " len " << len << " align " << align << " seed " << seed;
            }
        }
    }

    // 1 MiB + 13 B at every alignment.
    for (std::size_t align = 0; align < 16; ++align) {
        const std::uint32_t want = crc32_bytewise(buf.data() + align, kBig, 0);
        for (const NamedKernel& k : kernels)
            EXPECT_EQ(k.fn(buf.data() + align, kBig, 0), want)
                << k.name << " 1 MiB + 13 align " << align;
    }

    // Incremental: one cut at each fold boundary (63, 64, 65 bytes) and
    // tail boundary (79, 80), then chains cut at random points (most not
    // multiples of 16), each piece chained through the seed.
    for (const std::size_t cut : {63, 64, 65, 79, 80}) {
        for (const std::size_t rest : {0, 1, 15, 16, 17, 63, 64, 65, 200}) {
            const std::uint32_t seed = rng() | 1u;
            const std::uint32_t want = crc32_bytewise(buf.data(), cut + rest, seed);
            for (const NamedKernel& k : kernels)
                EXPECT_EQ(run(k, buf.data() + cut, rest, run(k, buf.data(), cut, seed)),
                          want)
                    << k.name << " cut " << cut << " rest " << rest;
        }
    }
    for (int trial = 0; trial < 64; ++trial) {
        const std::size_t len = rng() % (64 * 1024);
        const std::uint32_t seed = rng() | 1u;
        const std::uint32_t want = crc32_bytewise(buf.data(), len, seed);
        for (const NamedKernel& k : kernels) {
            std::mt19937 cuts(static_cast<unsigned>(trial));
            std::size_t at = 0;
            std::uint32_t c = seed;
            while (at < len) {
                const std::size_t piece =
                    std::min<std::size_t>(len - at, 1 + cuts() % 1500);
                c = run(k, buf.data() + at, piece, c);
                at += piece;
            }
            EXPECT_EQ(c, want) << k.name << " trial " << trial;
        }
    }

    if (!fold) GTEST_SKIP() << "no PCLMULQDQ + SSE4.1: the folding kernel was not checked";
}

// The standard CRC-32 check value pins the polynomial, reflection and the
// pre/post inversion.
TEST(CrcProperty, KnownAnswer) {
    const char check[] = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(check, 0), 0u);
}

// --- Reliable-delivery receive window ------------------------------------------

// The receive window of one link (ucx::SeqWindow: watermark + out-of-order
// numbers) against the structure it replaced, the set of every link_seq
// ever delivered. A seeded sender numbers 1..N, keeps at most `bound`
// numbers at or above its floor (the lowest number neither acked nor
// abandoned) and stamps that floor on every copy it sends. The wire drops,
// duplicates and reorders copies within a bounded horizon; dropped
// numbers are retransmitted, lost acks cause retransmits of numbers the
// receiver already has, and some numbers are abandoned outright. The
// receiver applies each copy's floor and then admits its number, exactly
// as Worker::admit_packet does. Every admit must equal the reference
// set's insert().second, where a number below an applied floor counts as
// seen; the window never holds `bound` or more out-of-order numbers.
TEST(SeqWindowProperty, MatchesSetReferenceOnLossyStreams) {
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        const auto chance = [&](unsigned pct) { return rng() % 100 < pct; };
        const std::uint64_t n = 1 + rng() % 800;
        const std::uint64_t bound = 1 + rng() % 48;
        const unsigned drop_pct = static_cast<unsigned>(rng() % 4) * 10;
        const unsigned dup_pct = static_cast<unsigned>(rng() % 3) * 10;
        const unsigned abandon_pct = seed % 3 == 0 ? 10 : 0;
        const std::size_t horizon = 1 + rng() % 8; // bounded reordering

        struct Copy {
            std::uint64_t seq, floor;
        };
        std::deque<Copy> wire;
        std::set<std::uint64_t> unacked; // sent, neither acked nor abandoned
        std::uint64_t next = 1;
        bool abandoned_any = false;
        const auto floor = [&] { return unacked.empty() ? next : *unacked.begin(); };
        const auto transmit = [&](std::uint64_t seq) {
            if (chance(drop_pct)) return;
            wire.push_back({seq, floor()});
            if (chance(dup_pct)) wire.push_back(wire.back());
        };

        ucx::SeqWindow window;
        std::set<std::uint64_t> seen;   // reference model
        std::uint64_t ref_floor = 1;    // every number below counts as seen
        while (next <= n || !unacked.empty() || !wire.empty()) {
            const bool may_send = next <= n && next < floor() + bound;
            if (may_send && (wire.empty() || chance(40))) {
                unacked.insert(next);
                transmit(next++);
            } else if (!wire.empty()) {
                const std::size_t pick = rng() % std::min(horizon, wire.size());
                const Copy c = wire[pick];
                wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(pick));
                window.apply_floor(c.floor);
                ref_floor = std::max(ref_floor, c.floor);
                const bool want = c.seq >= ref_floor && seen.insert(c.seq).second;
                ASSERT_EQ(window.admit(c.seq), want) << "seq " << c.seq;
                ASSERT_LT(window.out_of_order(), bound);
                if (!chance(drop_pct)) unacked.erase(c.seq); // the ack
            } else {
                // Nothing in flight: the retransmit timer of one unacked
                // number fires; sometimes its retries are already spent.
                auto it = unacked.begin();
                std::advance(it, static_cast<std::ptrdiff_t>(rng() % unacked.size()));
                if (chance(abandon_pct)) {
                    unacked.erase(it);
                    abandoned_any = true;
                } else {
                    transmit(*it);
                }
            }
        }
        // Everything was acked: the watermark alone summarises the stream.
        if (!abandoned_any) {
            EXPECT_EQ(window.watermark(), n);
            EXPECT_EQ(window.out_of_order(), 0u);
        }
        // The next packet on the link carries floor n + 1, which covers
        // any abandoned tail.
        window.apply_floor(n + 1);
        EXPECT_EQ(window.watermark(), n);
        EXPECT_EQ(window.out_of_order(), 0u);
    }
}


// --- The region walker (ucx::copy_regions) -----------------------------------

// A region list over an arena of its own. Every entry has its own stretch
// of the arena with at least kGuard guard bytes before it, and the arena
// ends in kGuard more, so a write outside every entry lands on a guard.
// With `line` > 1 each entry also starts on a `line`-aligned address, so
// entries of up to `line` bytes sit on lines of their own, as strided
// halo entries do. The entries live in a heap array of exactly their
// count, so reading one past the last is a heap-buffer-overflow under
// ASan. Empty entries have a null base: the walker must never touch them.
struct RegionList {
    static constexpr std::size_t kGuard = 8;
    static constexpr std::byte kGuardByte{0xA5};

    RegionList(const std::vector<Count>& lens, std::uint32_t seed, std::size_t line = 1)
        : table(std::make_unique<IovEntry[]>(lens.size())), entries(table.get(), lens.size()) {
        std::size_t size = kGuard + line;
        for (const Count len : lens) size += static_cast<std::size_t>(len) + kGuard + line - 1;
        arena = test::pattern_bytes(size, seed);
        const auto addr = reinterpret_cast<std::uintptr_t>(arena.data());
        std::size_t at = 0; // the end of the last entry
        for (std::size_t i = 0; i < lens.size(); ++i) {
            const std::size_t start = (addr + at + kGuard + line - 1) / line * line - addr;
            guards.emplace_back(at, start);
            entries[i] = {lens[i] == 0 ? nullptr : arena.data() + start, lens[i]};
            at = start + static_cast<std::size_t>(lens[i]);
        }
        guards.emplace_back(at, size);
        for (const auto& [from, to] : guards)
            std::fill(arena.begin() + static_cast<std::ptrdiff_t>(from),
                      arena.begin() + static_cast<std::ptrdiff_t>(to), kGuardByte);
    }

    // The list's bytes in stream order.
    [[nodiscard]] ByteVec stream() const {
        ByteVec out;
        for (const auto& e : entries)
            if (e.len > 0)
                append_bytes(out, as_bytes_of(e.base, static_cast<std::size_t>(e.len)));
        return out;
    }

    [[nodiscard]] bool guards_intact() const {
        for (const auto& [from, to] : guards)
            for (std::size_t i = from; i < to; ++i)
                if (arena[i] != kGuardByte) return false;
        return true;
    }

    ByteVec arena;
    std::unique_ptr<IovEntry[]> table;
    std::span<IovEntry> entries;
    std::vector<std::pair<std::size_t, std::size_t>> guards; // [from, to) arena runs
};

// One walk against the reference: flatten both lists, copy between the two
// streams with memcpy, and compare the moved count, the status, every
// destination byte and guard, and the untouched source.
void check_walk(const RegionList& src, RegionList& dst, Count src_off, Count dst_off,
                Count len) {
    const ByteVec s = src.stream();
    ByteVec expect = dst.stream();
    const ByteVec src_before = src.arena;
    const Count want = std::min(len, std::max<Count>(0, static_cast<Count>(s.size()) - src_off));
    const Count room = std::max<Count>(0, static_cast<Count>(expect.size()) - dst_off);
    const Count n = std::min(want, room);
    if (n > 0)
        std::memcpy(expect.data() + dst_off, s.data() + src_off, static_cast<std::size_t>(n));

    Count moved = -1;
    const Status st = ucx::copy_regions(src.entries, src_off, dst.entries, dst_off, len, &moved);
    EXPECT_EQ(moved, n);
    EXPECT_EQ(st, room < want ? Status::err_truncate : Status::success);
    EXPECT_EQ(dst.stream(), expect);
    EXPECT_TRUE(dst.guards_intact());
    EXPECT_EQ(src.arena, src_before);
}

// Random lists on both sides (1-64 entries of 0-300 B, about one in six
// empty), split independently or, for half the list-to-list walks, as two
// splits of one byte count (half of those at equal offsets, so both lists
// end together), at random offsets and lengths that reach past either end.
// The three shapes are the transport's calls: a gather into one entry
// (SendSource::read), a scatter from one entry (RecvSink::write and the
// rendezvous bounce) and list to list (the zero-copy rendezvous). A third
// of the one-entry walks use the adapters' exact call: offset 0 on the
// one-entry side, len its length.
TEST(RegionWalker, MatchesFlattenedReference) {
    enum Shape { gather, scatter, lists };
    std::mt19937_64 rng(0x9E1F);
    const auto upto = [&](Count hi) {
        return static_cast<Count>(rng() % static_cast<std::uint64_t>(hi + 1));
    };
    const auto random_lens = [&] {
        std::vector<Count> lens(static_cast<std::size_t>(1 + upto(63)));
        for (auto& len : lens) len = upto(5) == 0 ? 0 : 1 + upto(299);
        return lens;
    };
    const auto total = [](const std::vector<Count>& lens) {
        return std::accumulate(lens.begin(), lens.end(), Count{0});
    };
    // The same byte count split another way (empty entries included), so
    // the two lists often end together.
    const auto resplit = [&](Count bytes) {
        std::vector<Count> cuts(static_cast<std::size_t>(upto(63)));
        for (auto& c : cuts) c = upto(bytes);
        cuts.push_back(0);
        cuts.push_back(bytes);
        std::sort(cuts.begin(), cuts.end());
        std::vector<Count> lens;
        for (std::size_t i = 1; i < cuts.size(); ++i) {
            lens.push_back(cuts[i] - cuts[i - 1]);
            if (upto(5) == 0) lens.push_back(0);
        }
        return lens;
    };
    for (const Shape shape : {gather, scatter, lists}) {
        for (std::uint32_t iter = 0; iter < 600 && !HasFailure(); ++iter) {
            SCOPED_TRACE("shape " + std::to_string(shape) + " iter " + std::to_string(iter));
            std::vector<Count> src_lens = random_lens(), dst_lens = random_lens();
            const bool same_bytes = shape == lists && iter % 2 == 0;
            if (same_bytes) dst_lens = resplit(total(src_lens));
            if (shape == gather) dst_lens = {upto(total(src_lens) + 64)};
            if (shape == scatter) src_lens = {upto(total(dst_lens) + 64)};
            const RegionList src(src_lens, 2 * iter + 1);
            RegionList dst(dst_lens, 2 * iter + 2);
            const Count stotal = total(src_lens), dtotal = total(dst_lens);
            Count src_off = upto(stotal + 16), dst_off = upto(dtotal + 16);
            Count len = upto(std::max(stotal, dtotal) + 16);
            if (same_bytes && upto(1) == 0) dst_off = src_off; // both lists end together
            if (shape == gather && upto(2) == 0) {
                dst_off = 0;
                len = dtotal;
            }
            if (shape == scatter && upto(2) == 0) {
                src_off = 0;
                len = stotal;
            }
            check_walk(src, dst, src_off, dst_off, len);
        }
    }
}

// Long lists of short entries, each on a cache line of its own: the
// walker's prefetch ahead and its fixed-width copies. Widths straddle
// every copy branch (1-3, 4-7, 8-16 and 17-64 B, and longer) and include
// empty entries. The first 36 walks of each shape pair list lengths of 1,
// 7, 8, 9, 16 and 17, around the prefetch distance (8 entries); the rest
// draw 1-3,000 entries. Offsets land anywhere in the stream, mostly inside
// entries, and a third of the lengths reach past both ends. Shapes and the
// one-entry side are as in MatchesFlattenedReference.
TEST(RegionWalker, ShortEntriesOnLongLists) {
    enum Shape { gather, scatter, lists };
    static constexpr Count kWidths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,  12, 15,  16,
                                        17, 24, 31, 32, 33, 40, 48, 63, 64, 65, 100, 300};
    static constexpr std::size_t kShortLengths[] = {1, 7, 8, 9, 16, 17};
    constexpr std::size_t kLine = 64;
    std::mt19937_64 rng(0x5107);
    const auto upto = [&](Count hi) {
        return static_cast<Count>(rng() % static_cast<std::uint64_t>(hi + 1));
    };
    const auto random_lens = [&](std::size_t n) {
        std::vector<Count> lens(n);
        for (auto& len : lens) len = kWidths[rng() % std::size(kWidths)];
        return lens;
    };
    const auto total = [](const std::vector<Count>& lens) {
        return std::accumulate(lens.begin(), lens.end(), Count{0});
    };
    for (const Shape shape : {gather, scatter, lists}) {
        for (std::uint32_t iter = 0; iter < 100 && !HasFailure(); ++iter) {
            SCOPED_TRACE("shape " + std::to_string(shape) + " iter " + std::to_string(iter));
            const auto length = [&](std::size_t pick) {
                return iter < 36 ? kShortLengths[pick % 6]
                                 : static_cast<std::size_t>(1 + upto(2999));
            };
            std::vector<Count> src_lens = random_lens(length(iter)),
                               dst_lens = random_lens(length(iter / 6));
            if (shape == gather) dst_lens = {upto(total(src_lens) + 64)};
            if (shape == scatter) src_lens = {upto(total(dst_lens) + 64)};
            const RegionList src(src_lens, 2 * iter + 1, kLine);
            RegionList dst(dst_lens, 2 * iter + 2, kLine);
            const Count stotal = total(src_lens), dtotal = total(dst_lens);
            const Count src_off = upto(stotal + 16), dst_off = upto(dtotal + 16);
            const Count len = upto(2) == 0 ? std::max(stotal, dtotal) + 16
                                           : upto(std::max(stotal, dtotal) + 16);
            check_walk(src, dst, src_off, dst_off, len);
        }
    }
}

// Fixed cases of the gather and scatter shapes, and of the end of a
// source whose last entries are empty.
TEST(RegionWalker, FixedCases) {
    Count moved = 0;
    {
        // Gather 12 bytes at offset 5 from {10, 20}: 5 from a, 7 from b.
        ByteVec a = test::pattern_bytes(10, 1), b = test::pattern_bytes(20, 2);
        const IovEntry src[] = {{a.data(), 10}, {b.data(), 20}};
        ByteVec out(12);
        const IovEntry dst{out.data(), 12};
        ASSERT_EQ(ucx::copy_regions(src, 5, {&dst, 1}, 0, 12, &moved), Status::success);
        EXPECT_EQ(moved, 12);
        EXPECT_EQ(std::memcmp(out.data(), a.data() + 5, 5), 0);
        EXPECT_EQ(std::memcmp(out.data() + 5, b.data(), 7), 0);
    }
    {
        // A gather short at the end of the source moves what is left.
        ByteVec a = test::pattern_bytes(8);
        const IovEntry src{a.data(), 8};
        ByteVec out(100);
        const IovEntry dst{out.data(), 100};
        ASSERT_EQ(ucx::copy_regions({&src, 1}, 6, {&dst, 1}, 0, 100, &moved),
                  Status::success);
        EXPECT_EQ(moved, 2);
    }
    {
        // Scatter 15 bytes at offset 8 across {10, 20}.
        ByteVec a(10, std::byte{0}), b(20, std::byte{0});
        const IovEntry dst[] = {{a.data(), 10}, {b.data(), 20}};
        ByteVec in = test::pattern_bytes(15, 3);
        const IovEntry src{in.data(), 15};
        ASSERT_EQ(ucx::copy_regions({&src, 1}, 0, dst, 8, 15, &moved), Status::success);
        EXPECT_EQ(moved, 15);
        EXPECT_EQ(std::memcmp(a.data() + 8, in.data(), 2), 0);
        EXPECT_EQ(std::memcmp(b.data(), in.data() + 2, 13), 0);
        EXPECT_EQ(a[0], std::byte{0}); // untouched prefix
    }
    {
        // Empty source entries left after the destination is full are not a
        // truncation: the source has no bytes left.
        ByteVec a = test::pattern_bytes(8), out(8);
        const IovEntry src[] = {{a.data(), 8}, {nullptr, 0}};
        const IovEntry dst{out.data(), 8};
        EXPECT_EQ(ucx::copy_regions(src, 0, {&dst, 1}, 0, 100, &moved), Status::success);
        EXPECT_EQ(moved, 8);
        EXPECT_EQ(out, a);
    }
    {
        // A scatter that overruns the destination fills it and truncates.
        ByteVec a(4, std::byte{0});
        const IovEntry dst{a.data(), 4};
        ByteVec in = test::pattern_bytes(10);
        const IovEntry src{in.data(), 10};
        EXPECT_EQ(ucx::copy_regions({&src, 1}, 0, {&dst, 1}, 0, 10, &moved),
                  Status::err_truncate);
        EXPECT_EQ(moved, 4);
    }
}

} // namespace
} // namespace mpicd
