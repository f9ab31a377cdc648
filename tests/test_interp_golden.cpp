// Golden fingerprints of the interpreter.
//
// The interpreter's observable behaviour is pinned cell by cell: for each
// of the 29 workload_matrix_jobs(128) variants in trace mode, the exact
// reference stream (address, size, processor, type, in emission order),
// the reference and instruction counts, every processor's clock and the
// final simulated memory image; and for each of the ten workloads, the
// KSR timing run (cycles and every KsrStats counter) at two processor
// counts.  A faster dispatch loop or scheduler must reproduce these
// constants bit for bit; regenerate them only for a change that is meant
// to alter a program's schedule or results.
//
// On a mismatch the test prints the row it computed, in table syntax.
#include <gtest/gtest.h>

#include <cstdio>

#include "driver/experiment.h"
#include "workloads/workloads.h"

namespace fsopt {
namespace {

// FNV-1a over 64-bit words.
struct Fnv {
  u64 h = 1469598103934665603ull;
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

class HashSink : public TraceSink {
 public:
  void on_ref(const MemRef& r) override {
    fnv_.add(static_cast<u64>(r.addr));
    fnv_.add(r.size | (u64{r.proc} << 8) |
             (static_cast<u64>(r.type) << 16));
  }
  u64 hash() const { return fnv_.h; }

 private:
  Fnv fnv_;
};

struct TraceGolden {
  const char* label;
  u64 stream_hash;
  u64 refs;
  u64 instructions;
  i64 finish_cycles;
  u64 clock_hash;  // every processor's clock, in processor order
  u64 memory_hash;
};

struct KsrGolden {
  const char* label;
  i64 procs;
  i64 cycles;
  u64 refs;
  u64 instructions;
  u64 hits;
  u64 misses;
  u64 upgrades;
  u64 remote_misses;
  i64 stall_cycles;
  i64 queue_cycles;
  u64 classified_hash;  // every counter of KsrStats::classified
};

// clang-format off
const TraceGolden kTraceGolden[] = {
    {"maxflow/N", 0x0ad48525a0535c01ull, 111757, 2317181, 327138, 0x6197926b8d068361ull, 0xa37699752ff6fce8ull},
    {"maxflow/C", 0x73b800a5960b9d2cull, 111757, 2317181, 327138, 0x6197926b8d068361ull, 0x27c2eada44325274ull},
    {"pverify/N", 0x6cf6f2ee72038bfcull, 224363, 1887736, 208563, 0x54dbe0aef57bf903ull, 0x0f3e26716f6836edull},
    {"pverify/C", 0x186bf4f69c9571d6ull, 298846, 1887687, 222159, 0x192040e9dcdfaba1ull, 0x2d0d28307cf3b70full},
    {"pverify/P", 0x175c77c557d61d3dull, 224363, 1887736, 208563, 0x54dbe0aef57bf903ull, 0x9a7d9d78762262edull},
    {"topopt/N", 0xa158588458d87036ull, 237797, 4788254, 587023, 0xa5afb9f4d8328470ull, 0x6746626c9ff1f922ull},
    {"topopt/C", 0x6719701bef202bc2ull, 254501, 4788254, 590735, 0x11dae06d528d656bull, 0x62b324bc3c048ea0ull},
    {"topopt/P", 0x2bd1d69bbe7d58b1ull, 237797, 4788254, 587023, 0xa5afb9f4d8328470ull, 0xe4835376f90e60a2ull},
    {"fmm/N", 0xa354371985bd43f4ull, 348890, 9450422, 850387, 0x2ada12581588ff39ull, 0x03b749ed0dd30702ull},
    {"fmm/C", 0x26efa7dd507f5e7full, 348890, 9450422, 850387, 0x2ada12581588ff39ull, 0x13a60aeb3963f017ull},
    {"fmm/P", 0x25bef654055ac488ull, 348834, 9901950, 884437, 0x6bde2a02edf32504ull, 0xc4567702a67cbeddull},
    {"radiosity/N", 0x489c3b991f90cfebull, 109637, 9758085, 945369, 0x0c1bf7b6d6a59b6dull, 0x2f8814b6654e51bfull},
    {"radiosity/C", 0xd069f3c47ed60568ull, 109637, 9758085, 945369, 0x0c1bf7b6d6a59b6dull, 0x2b32642b1cfbe7f5ull},
    {"radiosity/P", 0x44481e75c2e0d4efull, 109705, 9726153, 968093, 0xf8ba6fad95dbf4f4ull, 0x6a01f01685019366ull},
    {"raytrace/N", 0xda28af510694e43cull, 421445, 4937178, 477252, 0x19e20e4308026f35ull, 0x2c6f544185d9e1f8ull},
    {"raytrace/C", 0xc9f532caca745330ull, 421445, 4937178, 477252, 0x19e20e4308026f35ull, 0x54333fc17ce279a9ull},
    {"raytrace/P", 0xa8c7cf66c0949424ull, 421445, 4985946, 481316, 0x1b03bb050d946f71ull, 0x453b26c02aa8e2daull},
    {"locusroute/N", 0x70dc0a82c18cc605ull, 56048, 2763728, 263738, 0xcca7e396ed2775b7ull, 0xa8e3a520f2e8e2bcull},
    {"locusroute/C", 0x7c6305b8d24ad8d1ull, 56048, 2763728, 263738, 0xcca7e396ed2775b7ull, 0x6e36dac1394bb015ull},
    {"locusroute/P", 0x7ca7193fbc918309ull, 56048, 2763728, 263738, 0xcca7e396ed2775b7ull, 0xbbe5b480d6ccec3cull},
    {"mp3d/N", 0x96970144e352ce47ull, 81869, 2067776, 216146, 0x3763e6a6ff32205cull, 0xf90d1600b5fc0c4eull},
    {"mp3d/C", 0x419b911f40215db3ull, 81869, 2067776, 216146, 0x3763e6a6ff32205cull, 0xb2a6f4a66f3cfc1bull},
    {"mp3d/P", 0x372d87357c4034deull, 81891, 2037078, 218436, 0x54c52583a7a730aeull, 0xf605ef7577e9693dull},
    {"pthor/N", 0x029b412b147a4e7dull, 46815, 1880106, 289970, 0xd677fd6e907f0fcfull, 0x916a27d16ac00ea4ull},
    {"pthor/C", 0x83de8926cfd785c5ull, 59008, 1880011, 282386, 0x61b5dedbd890bca8ull, 0x6d922f280e15a4afull},
    {"pthor/P", 0xdd3859016f10c14dull, 46815, 1880106, 289970, 0xd677fd6e907f0fcfull, 0xb0c2264bf269c211ull},
    {"water/N", 0x7ef8b1c7231b5d02ull, 125012, 8232783, 739351, 0xcf0ef0041e400813ull, 0x39ee3a3ba08d57f3ull},
    {"water/C", 0x3f722977a9c2676eull, 125012, 8232783, 739351, 0xcf0ef0041e400813ull, 0xaad812b81314dae1ull},
    {"water/P", 0x5bf6d99c5b4f3de6ull, 125012, 8398575, 753167, 0xd8052a1342fdf0cbull, 0x25ec68b0e9a54cb3ull},
};

const KsrGolden kKsrGolden[] = {
    {"maxflow", 4, 2056693, 112258, 2362467, 80220, 20638, 11400, 0, 4573574, 0, 0x88879b482c2aae92ull},
    {"maxflow", 40, 1813981, 136924, 2378426, 76655, 41828, 18441, 11119, 27565607, 13980980, 0xb28bba69c2c1c0c2ull},
    {"pverify", 4, 1471055, 282125, 1780648, 259856, 18289, 3980, 0, 3514237, 0, 0x192a5f93c3197fdcull},
    {"pverify", 40, 1062198, 359227, 2264178, 317060, 40518, 1649, 6921, 32553514, 22457363, 0x25f09c2a46fd35f1ull},
    {"topopt", 4, 1364956, 247163, 4743146, 245194, 1795, 174, 0, 325847, 0, 0xdb62f8487192b036ull},
    {"topopt", 40, 791232, 307540, 5073947, 289502, 16292, 1746, 3385, 9422280, 5011491, 0xc8408b93ada972efull},
    {"fmm", 4, 3470660, 347815, 9448483, 325064, 14358, 8393, 0, 3222518, 0, 0x9d9b2de1dd959704ull},
    {"fmm", 40, 1838672, 362629, 9467185, 295293, 54200, 13136, 13394, 48628908, 32403890, 0x3b1ec497f7a98b42ull},
    {"radiosity", 4, 2845274, 88175, 7818819, 64928, 12559, 10688, 0, 3113251, 0, 0xdc359d8bb6fd68beull},
    {"radiosity", 40, 1884808, 137046, 9795462, 65027, 46250, 25769, 12668, 39119649, 23466827, 0x916bbfc3eaeb224bull},
    {"raytrace", 4, 1867713, 420963, 4936376, 406911, 9453, 4599, 0, 2040081, 0, 0x4ffc7fbac04b7279ull},
    {"raytrace", 40, 671439, 429133, 4945986, 407775, 19432, 1926, 4109, 6869870, 1592321, 0x5e8bf91946523eb0ull},
    {"locusroute", 4, 968113, 55875, 2763347, 48813, 4318, 2744, 0, 988486, 0, 0x0060220eb27fa4c0ull},
    {"locusroute", 40, 361234, 60627, 2769035, 48953, 8329, 3345, 1933, 3345950, 789148, 0xa3b01bc05310af39ull},
    {"mp3d", 4, 1408395, 81725, 2067088, 60585, 11029, 10111, 0, 2797785, 0, 0x1772c2aedf0c963dull},
    {"mp3d", 40, 1016134, 101795, 2089606, 63512, 23366, 14917, 9147, 14447411, 5204922, 0xf5132a6ef3cf880full},
    {"pthor", 4, 652907, 36933, 1398000, 31134, 5396, 403, 0, 968972, 0, 0x701f7ae9329d78a6ull},
    {"pthor", 40, 1100179, 116689, 2177932, 83344, 31383, 1962, 14183, 22204763, 10575073, 0xb684465f70cf0a51ull},
    {"water", 4, 2362138, 124059, 8231254, 119155, 3644, 1260, 0, 741292, 0, 0x9dc56c81b75fc39aull},
    {"water", 40, 678905, 131146, 8240933, 110882, 18087, 2177, 3785, 10743094, 5813842, 0x56108ee1a8bfc114ull},
};
// clang-format on

// Processor counts of the KSR runs: one within a ring, one spanning two
// rings (ring_size 32), so the inter-ring path is pinned too.
constexpr i64 kKsrProcs[] = {4, 40};

TraceGolden trace_fingerprint(const CompiledVariant& v) {
  HashSink sink;
  MachineOptions mo;
  mo.sink = &sink;
  Machine m(v.compiled.code, mo);
  m.run();
  Fnv clocks;
  for (i64 p = 0; p < v.compiled.nprocs(); ++p)
    clocks.add(static_cast<u64>(m.proc_cycles(static_cast<int>(p))));
  Fnv mem;
  const std::vector<u8>& image = m.memory();
  mem.add(image.size());
  for (u8 b : image) mem.add(b);
  return {nullptr,          sink.hash(),         m.refs(),
          m.instructions(), m.finish_cycles(),   clocks.h,
          mem.h};
}

KsrGolden ksr_fingerprint(const workloads::Workload& w, i64 procs) {
  CompileOptions opt;
  opt.overrides = w.sim_overrides;
  opt.overrides["NPROCS"] = procs;
  opt.optimize = true;
  TimingResult t = run_ksr(compile_source(w.natural, opt));
  const MissStats& c = t.ksr.classified;
  Fnv cls;
  for (u64 v : {c.refs, c.hits, c.cold, c.replacement, c.true_sharing,
                c.false_sharing, c.upgrades, c.invalidations})
    cls.add(v);
  return {nullptr,
          procs,
          t.cycles,
          t.refs,
          t.instructions,
          t.ksr.hits,
          t.ksr.misses,
          t.ksr.upgrades,
          t.ksr.remote_misses,
          t.ksr.stall_cycles,
          t.ksr.queue_cycles,
          cls.h};
}

void print_row(const std::string& label, const TraceGolden& g) {
  std::printf(
      "    {\"%s\", 0x%016llxull, %llu, %llu, %lld, 0x%016llxull, "
      "0x%016llxull},\n",
      label.c_str(), static_cast<unsigned long long>(g.stream_hash),
      static_cast<unsigned long long>(g.refs),
      static_cast<unsigned long long>(g.instructions),
      static_cast<long long>(g.finish_cycles),
      static_cast<unsigned long long>(g.clock_hash),
      static_cast<unsigned long long>(g.memory_hash));
}

void print_row(const std::string& label, const KsrGolden& g) {
  std::printf(
      "    {\"%s\", %lld, %lld, %llu, %llu, %llu, %llu, %llu, %llu, %lld, "
      "%lld, 0x%016llxull},\n",
      label.c_str(), static_cast<long long>(g.procs),
      static_cast<long long>(g.cycles),
      static_cast<unsigned long long>(g.refs),
      static_cast<unsigned long long>(g.instructions),
      static_cast<unsigned long long>(g.hits),
      static_cast<unsigned long long>(g.misses),
      static_cast<unsigned long long>(g.upgrades),
      static_cast<unsigned long long>(g.remote_misses),
      static_cast<long long>(g.stall_cycles),
      static_cast<long long>(g.queue_cycles),
      static_cast<unsigned long long>(g.classified_hash));
}

TEST(InterpGolden, TraceModeMatrix) {
  std::vector<CompiledVariant> vs = compile_matrix(workload_matrix_jobs(128));
  ASSERT_EQ(vs.size(), std::size(kTraceGolden));
  std::vector<TraceGolden> got(vs.size());
  parallel_for_each(0, vs.size(),
                    [&](size_t i) { got[i] = trace_fingerprint(vs[i]); });
  for (size_t i = 0; i < vs.size(); ++i) {
    const TraceGolden& want = kTraceGolden[i];
    const TraceGolden& g = got[i];
    SCOPED_TRACE(vs[i].label);
    EXPECT_EQ(vs[i].label, want.label);
    bool same = g.stream_hash == want.stream_hash && g.refs == want.refs &&
                g.instructions == want.instructions &&
                g.finish_cycles == want.finish_cycles &&
                g.clock_hash == want.clock_hash &&
                g.memory_hash == want.memory_hash;
    EXPECT_EQ(g.stream_hash, want.stream_hash);
    EXPECT_EQ(g.refs, want.refs);
    EXPECT_EQ(g.instructions, want.instructions);
    EXPECT_EQ(g.finish_cycles, want.finish_cycles);
    EXPECT_EQ(g.clock_hash, want.clock_hash);
    EXPECT_EQ(g.memory_hash, want.memory_hash);
    if (!same) print_row(vs[i].label, g);
  }
}

TEST(InterpGolden, KsrTimingRuns) {
  const std::vector<workloads::Workload>& ws = workloads::all();
  const size_t nprocs = std::size(kKsrProcs);
  ASSERT_EQ(ws.size() * nprocs, std::size(kKsrGolden));
  std::vector<KsrGolden> got(std::size(kKsrGolden));
  parallel_for_each(0, got.size(), [&](size_t i) {
    got[i] = ksr_fingerprint(ws[i / nprocs], kKsrProcs[i % nprocs]);
  });
  for (size_t i = 0; i < got.size(); ++i) {
    const KsrGolden& want = kKsrGolden[i];
    const KsrGolden& g = got[i];
    const std::string& label = ws[i / nprocs].name;
    SCOPED_TRACE(label + " @ " + std::to_string(g.procs));
    EXPECT_EQ(label, want.label);
    EXPECT_EQ(g.procs, want.procs);
    bool same = g.cycles == want.cycles && g.refs == want.refs &&
                g.instructions == want.instructions && g.hits == want.hits &&
                g.misses == want.misses && g.upgrades == want.upgrades &&
                g.remote_misses == want.remote_misses &&
                g.stall_cycles == want.stall_cycles &&
                g.queue_cycles == want.queue_cycles &&
                g.classified_hash == want.classified_hash;
    EXPECT_EQ(g.cycles, want.cycles);
    EXPECT_EQ(g.refs, want.refs);
    EXPECT_EQ(g.instructions, want.instructions);
    EXPECT_EQ(g.hits, want.hits);
    EXPECT_EQ(g.misses, want.misses);
    EXPECT_EQ(g.upgrades, want.upgrades);
    EXPECT_EQ(g.remote_misses, want.remote_misses);
    EXPECT_EQ(g.stall_cycles, want.stall_cycles);
    EXPECT_EQ(g.queue_cycles, want.queue_cycles);
    EXPECT_EQ(g.classified_hash, want.classified_hash);
    if (!same) print_row(label, g);
  }
}

}  // namespace
}  // namespace fsopt
