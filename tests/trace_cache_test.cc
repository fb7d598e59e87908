/**
 * @file
 * Tests for the shared on-disk trace cache: atomic saveFile() under
 * concurrent writers and readers, config-hashed cache keys, and the
 * cold/warm/corrupt-recovery cycle of loadOrGenerateSuite().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.hh"
#include "obs/registry.hh"
#include "trace/format.hh"
#include "trace/trace.hh"

namespace {

namespace fs = std::filesystem;
using namespace ccp;
using trace::CoherenceEvent;
using trace::SharingTrace;

SharingTrace
makeTrace(std::size_t n_events)
{
    SharingTrace tr("conc", 16);
    for (std::size_t i = 0; i < n_events; ++i) {
        CoherenceEvent ev;
        ev.pid = i % 16;
        ev.dir = (i / 16) % 16;
        ev.pc = 0x400 + 4 * (i % 32);
        ev.block = i % 1024;
        ev.readers = SharingBitmap((i * 2654435761u) & 0xffff);
        tr.append(ev);
    }
    return tr;
}

fs::path
freshDir(const char *leaf)
{
    fs::path dir = fs::path(::testing::TempDir()) / leaf;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/**
 * The acceptance scenario: concurrent generators of the same cache
 * entry (as separate bench processes would be) racing concurrent
 * loaders.  With atomic temp-file + rename() writes, a loader may
 * find the file missing before the first save lands, but must never
 * load a torn file and must never fail once a save has completed.
 */
TEST(TraceCache, ConcurrentSaveAndLoadNeverObservesPartialFile)
{
    const fs::path dir = freshDir("ccp_cache_conc");
    const std::string path = (dir / "w.trace").string();
    const SharingTrace tr = makeTrace(2000);

    std::atomic<bool> first_saved{false};
    std::atomic<bool> done{false};
    std::atomic<int> save_failures{0};
    std::atomic<int> torn_loads{0};
    std::atomic<int> missed_loads{0};
    std::atomic<int> good_loads{0};

    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w)
        writers.emplace_back([&] {
            for (int i = 0; i < 25; ++i) {
                if (!tr.saveFile(path))
                    ++save_failures;
                else
                    first_saved.store(true);
            }
        });

    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r)
        readers.emplace_back([&] {
            while (!done.load()) {
                const bool must_succeed = first_saved.load();
                SharingTrace got;
                if (got.loadFile(path)) {
                    if (got.events().size() != 2000 ||
                        got.nNodes() != 16)
                        ++torn_loads;
                    else
                        ++good_loads;
                } else if (must_succeed) {
                    ++missed_loads;
                }
            }
        });

    for (auto &t : writers)
        t.join();
    done.store(true);
    for (auto &t : readers)
        t.join();

    EXPECT_EQ(save_failures.load(), 0);
    EXPECT_EQ(torn_loads.load(), 0);
    EXPECT_EQ(missed_loads.load(), 0);
    EXPECT_GT(good_loads.load(), 0);

    // No temp files may linger: exactly the renamed-into-place file.
    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        ++entries;
        EXPECT_EQ(e.path().filename().string(), "w.trace");
    }
    EXPECT_EQ(entries, 1u);
    fs::remove_all(dir);
}

TEST(TraceCache, FailedSaveLeavesNoPartialFile)
{
    const fs::path dir = freshDir("ccp_cache_fail");
    const std::string path =
        (dir / "missing_subdir" / "x.trace").string();
    EXPECT_FALSE(makeTrace(3).saveFile(path));
    // An unsavable trace (bad node count) must also clean up.
    const std::string path2 = (dir / "y.trace").string();
    EXPECT_FALSE(SharingTrace("bad", 0).saveFile(path2));
    EXPECT_TRUE(fs::is_empty(dir));
    fs::remove_all(dir);
}

TEST(TraceCache, CacheKeyTracksEveryParameter)
{
    const std::string base =
        benchutil::traceCachePath("d", "barnes", 0x5eed, 1.0);
    EXPECT_NE(base,
              benchutil::traceCachePath("d", "barnes", 0x5eee, 1.0));
    EXPECT_NE(base,
              benchutil::traceCachePath("d", "barnes", 0x5eed, 0.5));
    EXPECT_NE(base,
              benchutil::traceCachePath("d", "ocean", 0x5eed, 1.0));
    // Deterministic: same parameters, same key.
    EXPECT_EQ(base,
              benchutil::traceCachePath("d", "barnes", 0x5eed, 1.0));
}

std::uint64_t
counterValue(const obs::StatsRegistry &reg, const std::string &path)
{
    const auto *c = reg.findCounter(path);
    return c ? c->value : 0;
}

void
expectIdenticalTraces(const SharingTrace &a, const SharingTrace &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.nNodes(), b.nNodes());
    const auto ma = trace::packMeta(a.meta());
    const auto mb = trace::packMeta(b.meta());
    EXPECT_EQ(ma, mb);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        const auto pa = trace::packEvent(a.events()[i]);
        const auto pb = trace::packEvent(b.events()[i]);
        ASSERT_EQ(std::memcmp(&pa, &pb, sizeof(pa)), 0)
            << a.name() << " event " << i;
    }
    EXPECT_EQ(a.sharingEvents(), b.sharingEvents());
    EXPECT_EQ(a.prevalence(), b.prevalence());
}

/**
 * Cold generate, warm load, corrupt-recover: the full life cycle of
 * the shared suite cache, with the bench.traces_* counters asserted
 * at each step and the loaded suites byte-equivalent throughout.
 */
TEST(TraceCache, SuiteColdWarmCorruptCycle)
{
    const fs::path dir = freshDir("ccp_cache_suite");
    ::setenv("CCP_TRACE_DIR", dir.c_str(), 1);
    ::setenv("CCP_SCALE", "0.02", 1);
    ::setenv("CCP_SEED", "0x5eed", 1);

    auto &reg = obs::StatsRegistry::root();

    reg.clear();
    const auto cold = benchutil::loadOrGenerateSuite();
    ASSERT_EQ(cold.size(), 7u);
    EXPECT_EQ(counterValue(reg, "bench.traces_generated"), 7u);
    EXPECT_EQ(counterValue(reg, "bench.traces_cached"), 0u);

    reg.clear();
    const auto warm = benchutil::loadOrGenerateSuite();
    ASSERT_EQ(warm.size(), 7u);
    EXPECT_EQ(counterValue(reg, "bench.traces_cached"), 7u);
    EXPECT_EQ(counterValue(reg, "bench.traces_generated"), 0u);
    for (std::size_t i = 0; i < 7; ++i)
        expectIdenticalTraces(warm[i], cold[i]);

    // Acceptance: on every suite workload, the mmap read path yields
    // a SharingTrace identical to the stream read path — events,
    // meta, and derived stats.
    for (const auto &e : fs::directory_iterator(dir)) {
        SharingTrace via_stream, via_map;
        ASSERT_TRUE(via_stream.loadFileStream(e.path().string()));
        ASSERT_TRUE(via_map.loadFileMapped(e.path().string()));
        expectIdenticalTraces(via_map, via_stream);
    }

    // Corrupt one cached file: it must be rejected, deleted, and
    // regenerated — and the regenerated suite must be identical.
    fs::path victim;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().filename().string().rfind("barnes_", 0) == 0)
            victim = e.path();
    ASSERT_FALSE(victim.empty());
    {
        // Replaced by rename(), as saveFile() does: `warm` still maps
        // the old file, and a mapped file is never edited in place.
        std::ifstream in(victim, std::ios::binary);
        std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
        ASSERT_GT(bytes.size(), 100u);
        bytes[100] = static_cast<char>(bytes[100] ^ 0x10);
        const fs::path corrupt = victim.string() + ".corrupt";
        std::ofstream(corrupt, std::ios::binary)
            .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        fs::rename(corrupt, victim);
    }

    reg.clear();
    const auto healed = benchutil::loadOrGenerateSuite();
    ASSERT_EQ(healed.size(), 7u);
    EXPECT_EQ(counterValue(reg, "bench.traces_corrupt_rejected"), 1u);
    EXPECT_EQ(counterValue(reg, "bench.traces_cached"), 6u);
    EXPECT_EQ(counterValue(reg, "bench.traces_generated"), 1u);
    for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(healed[i].storeMisses(), cold[i].storeMisses());
        EXPECT_EQ(healed[i].sharingEvents(),
                  cold[i].sharingEvents());
    }

    reg.clear();
    ::unsetenv("CCP_TRACE_DIR");
    ::unsetenv("CCP_SCALE");
    ::unsetenv("CCP_SEED");
    fs::remove_all(dir);
}

#if defined(__linux__)

/** Open descriptors of this process (the /proc/self/fd listing; the
 *  iterator's own fd inflates every call equally so deltas are
 *  exact). */
std::size_t
countOpenFds()
{
    std::size_t n = 0;
    for (const auto &e : fs::directory_iterator("/proc/self/fd")) {
        (void)e;
        ++n;
    }
    return n;
}

/**
 * The mmap loader's error paths must not leak descriptors or
 * mappings: a cache stuck in a reject+regenerate loop (flaky disk,
 * repeated corruption) calls them thousands of times per run.  Every
 * reject flavour — checksum mismatch, short file, truncated payload —
 * plus the success path is cycled; the process fd count must come
 * back to baseline each time.
 */
TEST(TraceCache, MappedLoadRejectLoopKeepsFdCountStable)
{
    const fs::path dir = freshDir("ccp_cache_fds");
    const std::string path = (dir / "fd.trace").string();
    const SharingTrace tr = makeTrace(500);
    ASSERT_TRUE(tr.saveFile(path));
    const auto valid_size = fs::file_size(path);

    // Warm up lazily created descriptors (logging, locale) before
    // taking the baseline.
    {
        SharingTrace warm;
        ASSERT_TRUE(warm.loadFileMapped(path));
    }
    const std::size_t baseline = countOpenFds();

    for (int cycle = 0; cycle < 32; ++cycle) {
        // Checksum reject: flip one payload byte.
        {
            std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
            f.seekg(200);
            char b = 0;
            f.read(&b, 1);
            f.seekp(200);
            b = static_cast<char>(b ^ 0x40);
            f.write(&b, 1);
        }
        SharingTrace rejected;
        EXPECT_FALSE(rejected.loadFileMapped(path));

        // Short-file reject: truncate below the header size.
        fs::resize_file(path, 8);
        SharingTrace trunc;
        EXPECT_FALSE(trunc.loadFileMapped(path));

        // Truncated-payload reject: header intact, payload cut.
        ASSERT_TRUE(tr.saveFile(path));
        fs::resize_file(path, valid_size - 16);
        SharingTrace torn;
        EXPECT_FALSE(torn.loadFileMapped(path));

        // Regenerate: the loop's recovery step must succeed again.
        ASSERT_TRUE(tr.saveFile(path));
        SharingTrace healed;
        EXPECT_TRUE(healed.loadFileMapped(path));

        EXPECT_EQ(countOpenFds(), baseline) << "cycle " << cycle;
    }

    fs::remove_all(dir);
}

/**
 * A mapped trace keeps its mapping but not its descriptor: 100 live
 * mapped traces (and copies sharing their mappings) hold no fd.
 */
TEST(TraceCache, LiveMappedTracesHoldNoDescriptors)
{
    const fs::path dir = freshDir("ccp_cache_live_fds");
    const SharingTrace tr = makeTrace(500);
    std::vector<std::string> paths;
    for (int i = 0; i < 4; ++i) {
        paths.push_back((dir / ("live" + std::to_string(i) + ".trace"))
                            .string());
        ASSERT_TRUE(tr.saveFile(paths.back()));
    }
    {
        SharingTrace warm;
        ASSERT_TRUE(warm.loadFileMapped(paths[0]));
    }
    const std::size_t baseline = countOpenFds();

    std::vector<SharingTrace> live(100);
    for (std::size_t i = 0; i < live.size(); ++i)
        ASSERT_TRUE(live[i].loadFileMapped(paths[i % paths.size()]));
    const std::vector<SharingTrace> copies = live;
    EXPECT_EQ(countOpenFds(), baseline);
    for (const SharingTrace &t : copies)
        EXPECT_EQ(t.events().size(), 500u);

    fs::remove_all(dir);
    EXPECT_EQ(live.back().events()[499].block, 499u);
}

#endif // __linux__

} // namespace
