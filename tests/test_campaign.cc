/**
 * @file
 * Tests for the statistical campaign engine: counter-keyed sampling
 * (shard invariance), window-edge sampling, checkpoint/fork verdict
 * equivalence against full re-execution, register-file
 * classification, run-cache key completeness, Wilson edge cases, and
 * the measured-vs-analytical coverage property on real workload
 * surrogates.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "cpu/pipeline.hh"
#include "faults/campaign.hh"
#include "faults/campaign_engine.hh"
#include "faults/fork_server.hh"
#include "faults/injector.hh"
#include "harness/experiment.hh"
#include "harness/run_cache.hh"
#include "isa/assembler.hh"
#include "isa/executor.hh"
#include "sim/parallel.hh"
#include "sim/prof.hh"
#include "sim/rng.hh"
#include "workloads/suite.hh"

using namespace ser;
using namespace ser::faults;

namespace
{

struct EngineRun
{
    isa::Program program;
    cpu::SimTrace trace;
    avf::DeadnessResult deadness;
    avf::AvfResult avf;
    std::vector<std::uint64_t> golden;
};

EngineRun
makeRun(isa::Program program)
{
    EngineRun r;
    r.program = std::move(program);
    isa::Executor golden(r.program);
    EXPECT_EQ(golden.run(3000000), isa::Termination::Halted);
    r.golden = golden.state().output();

    cpu::PipelineParams params;
    params.maxInsts = 3000000;
    cpu::InOrderPipeline pipe(r.program, params);
    r.trace = pipe.run();
    r.trace.program = &r.program;
    r.deadness = avf::analyzeDeadness(r.trace);
    r.avf = avf::computeAvf(r.trace, r.deadness);
    return r;
}

EngineRun
makeRun(const std::string &src)
{
    return makeRun(isa::assembleOrDie(src));
}

const char *kLoopSrc = R"(
    movi r2 = 17
    movi r4 = 200
    loop:
    mul r2 = r2, r2
    addi r2 = r2, 13
    xor r6 = r6, r2
    movi r5 = 1
    movi r5 = 2
    addi r4 = r4, -1
    cmplt p3 = r0, r4
    (p3) br loop
    out r2
    out r6
    halt
)";

bool
sameOutcome(const CampaignOutcome &a, const CampaignOutcome &b)
{
    if (a.samplesRun != b.samplesRun ||
        a.earlyStopped != b.earlyStopped || a.reruns != b.reruns ||
        a.rerunSteps != b.rerunSteps ||
        a.structures.size() != b.structures.size())
        return false;
    for (std::size_t i = 0; i < a.structures.size(); ++i) {
        if (a.structures[i].tally.counts !=
                b.structures[i].tally.counts ||
            a.structures[i].tally.samples !=
                b.structures[i].tally.samples)
            return false;
    }
    if (a.rootCauses.size() != b.rootCauses.size())
        return false;
    for (std::size_t i = 0; i < a.rootCauses.size(); ++i)
        if (a.rootCauses[i].staticIdx != b.rootCauses[i].staticIdx ||
            a.rootCauses[i].sdcInjections !=
                b.rootCauses[i].sdcInjections)
            return false;
    return true;
}

} // namespace

TEST(KeyedRng, IndependentOfDrawHistory)
{
    // Sample i's stream must depend only on (seed, i): however many
    // values an earlier sample drew, sample i starts identically.
    Rng a = Rng::keyed(123, 7);
    Rng warm = Rng::keyed(123, 6);
    for (int i = 0; i < 100; ++i)
        warm.next();  // unrelated draws on another key
    Rng b = Rng::keyed(123, 7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());

    // Adjacent indices and different seeds give distinct streams.
    EXPECT_NE(Rng::keyed(123, 7).next(), Rng::keyed(123, 8).next());
    EXPECT_NE(Rng::keyed(123, 7).next(), Rng::keyed(124, 7).next());
}

TEST(SampleWindowCycle, DegenerateAndBounds)
{
    Rng rng(42);
    // Empty and reversed windows pin to start instead of panicking
    // on Rng::range(0).
    EXPECT_EQ(sampleWindowCycle(rng, 100, 100), 100u);
    EXPECT_EQ(sampleWindowCycle(rng, 100, 50), 100u);

    // Half-open [start, end): end-1 must be reachable, end never.
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t c = sampleWindowCycle(rng, 10, 14);
        EXPECT_GE(c, 10u);
        EXPECT_LT(c, 14u);
        seen.insert(c);
    }
    EXPECT_EQ(seen.size(), 4u) << "all four cycles sampleable";
    EXPECT_TRUE(seen.count(13)) << "last occupied cycle sampleable";
}

namespace
{

/**
 * A register strike replayed in full: run from the entry to 'step',
 * flip the bit, run on until the program stops or 'budget' steps have
 * run in all, and compare the output with the golden stream.
 */
bool
registerStrikeChangesOutput(const EngineRun &r, std::uint64_t budget,
                            std::uint64_t step, RegClass file, int reg,
                            int bit)
{
    isa::Executor ex(r.program);
    while (ex.steps() < step) {
        if (ex.step() != isa::Termination::Running)
            return false;  // struck after the last instruction
    }
    isa::ArchState &st = ex.state();
    switch (file) {
      case RegClass::Int:
        st.writeInt(reg, st.readInt(reg) ^ (1ULL << bit));
        break;
      case RegClass::Fp:
        st.writeFpBits(reg, st.readFpBits(reg) ^ (1ULL << bit));
        break;
      case RegClass::Pred:
        st.writePred(reg, !st.readPred(reg));
        break;
    }
    return ex.run(budget - ex.steps()) != isa::Termination::Halted ||
           st.output() != r.golden;
}

/** Fork verdicts against full reruns, for encoding strikes (the
 * injector's own full rerun) and register strikes (the replay
 * above). */
void
expectForksMatchFullReruns(const std::string &what, const EngineRun &r,
                           const ForkServer &fork)
{
    // Two injectors over the same trace: one re-runs through the
    // fork server, the other replays from scratch. Every classified
    // site must agree exactly.
    FaultInjector forked(r.program, r.trace, r.golden);
    forked.attachForkServer(&fork);
    FaultInjector full(r.program, r.trace, r.golden);

    int reran = 0;
    for (std::uint64_t i = 0; i < 400; ++i) {
        Rng rng = Rng::keyed(0xF0, i);
        FaultSite site;
        site.entry =
            static_cast<std::uint16_t>(rng.range(r.trace.iqEntries));
        site.bit =
            static_cast<std::uint8_t>(rng.range(payloadBits));
        site.cycle = sampleWindowCycle(rng, r.trace.startCycle,
                                       r.trace.endCycle);
        FaultResult a = forked.classify(site, Protection::None);
        FaultResult b = full.classify(site, Protection::None);
        ASSERT_EQ(a.outcome, b.outcome)
            << what << ": entry " << site.entry << " bit "
            << int(site.bit) << " cycle " << site.cycle;
        EXPECT_EQ(a.reRan, b.reRan) << what << ": sample " << i;
        if (a.reRan) {
            ++reran;
            // The fork pays at most the full suffix; usually less.
            EXPECT_LE(a.rerunSteps, b.rerunSteps)
                << what << ": sample " << i;
        }
    }
    EXPECT_GT(reran, 0)
        << what << ": sites never exercised the re-run path";

    const std::uint64_t budget = 2 * fork.goldenSteps() + 10000;
    int changed = 0;
    for (std::uint64_t i = 0; i < 300; ++i) {
        Rng rng = Rng::keyed(0xF1, i);
        std::uint64_t step = rng.range(fork.goldenSteps() + 1);
        auto file = static_cast<RegClass>(rng.range(3));
        // Skip the hardwired r0/f0/f1/p0: a flip there is a no-op.
        int first = file == RegClass::Fp ? 2 : 1;
        int regs = file == RegClass::Int  ? isa::numIntRegs
                   : file == RegClass::Fp ? isa::numFpRegs
                                          : isa::numPredRegs;
        int reg = first + static_cast<int>(rng.range(
                              static_cast<std::uint64_t>(regs - first)));
        int bit = static_cast<int>(rng.range(64));
        bool expect =
            registerStrikeChangesOutput(r, budget, step, file, reg, bit);
        ASSERT_EQ(fork.corruptRegister(step, file, reg, bit).changed,
                  expect)
            << what << ": register sample " << i << " step " << step
            << " file " << int(file) << " reg " << reg << " bit "
            << bit;
        changed += expect;
    }
    EXPECT_GT(changed, 0)
        << what << ": no register strike changed the output";
}

} // namespace

TEST(ForkServer, VerdictMatchesFullRerun)
{
    EngineRun r = makeRun(kLoopSrc);
    ForkServer fork(r.program, 0, 8);
    expectForksMatchFullReruns("loop", r, fork);
}

TEST(ForkServer, VerdictMatchesFullRerunOnManyPages)
{
    // The vpr surrogate: 512 data pages, and stores all through the
    // run, so forks write pages they share with their checkpoint.
    EngineRun r = makeRun(workloads::buildBenchmark("vpr", 6000));
    isa::Executor probe(r.program);
    ASSERT_GE(probe.state().memory().numPages(), 64u);
    ForkServer fork(r.program, 0, 8);
    expectForksMatchFullReruns("vpr", r, fork);
    EXPECT_GT(fork.forkPagesCopied(), 0u)
        << "no fork wrote a page it shared with its checkpoint";
}

TEST(ForkServer, ConcurrentForksShareCheckpointsSafely)
{
    // Workers fork from the same const checkpoints at once, each
    // copying pages it shares with them: verdicts, steps and page
    // counts match a serial pass exactly (and the thread-sanitizer
    // build sees the sharing from several threads).
    isa::Program program = workloads::buildBenchmark("vpr", 6000);
    ForkServer fork(program, 0, 8);
    const std::size_t n = 256;
    auto strike = [&](std::size_t i) {
        Rng rng = Rng::keyed(0xF3, i);
        return fork.corruptRegister(
            rng.range(fork.goldenSteps()), RegClass::Int,
            1 + static_cast<int>(rng.range(63)),
            static_cast<int>(rng.range(64)));
    };
    std::vector<ForkServer::Verdict> serial(n), parallel(n);
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = strike(i);
    const std::uint64_t copied = fork.forkPagesCopied();
    const std::uint64_t compared = fork.forkPagesCompared();
    ser::parallelFor(n, 4,
                     [&](std::size_t i) { parallel[i] = strike(i); });
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(parallel[i].changed, serial[i].changed)
            << "sample " << i;
        EXPECT_EQ(parallel[i].steps, serial[i].steps)
            << "sample " << i;
    }
    EXPECT_GT(copied, 0u);
    EXPECT_EQ(fork.forkPagesCopied(), 2 * copied);
    EXPECT_EQ(fork.forkPagesCompared(), 2 * compared);
}

TEST(ForkServer, ForkCopiesOnlyThePagesItWrites)
{
    // The mcf surrogate holds 4096 data pages (16 MiB). A fork shares
    // them all with its checkpoint and copies only the few its
    // suffix stores to.
    isa::Program program = workloads::buildBenchmark("mcf", 6000);
    isa::Executor probe(program);
    ASSERT_GE(probe.state().memory().numPages(), 4096u);
    ForkServer fork(program, 0, 32);

    prof::setEnabled(true);
    prof::reset();
    const std::uint64_t forks = 128;
    for (std::uint64_t i = 0; i < forks; i += 2) {
        Rng rng = Rng::keyed(0xF2, i);
        std::uint64_t step = rng.range(fork.goldenSteps());
        fork.corruptEncoding(step, 1ULL << rng.range(64));
        fork.corruptRegister(step, RegClass::Int,
                             1 + static_cast<int>(rng.range(63)),
                             static_cast<int>(rng.range(64)));
    }
    std::map<std::string, std::uint64_t> counters;
    for (const prof::CounterSample &c : prof::snapshot().counters)
        counters[c.name] = c.value;
    prof::setEnabled(false);
    prof::reset();

    EXPECT_GT(fork.forkPagesCopied(), 0u);
    EXPECT_LT(static_cast<double>(fork.forkPagesCopied()) /
                  static_cast<double>(forks),
              64.0)
        << fork.forkPagesCopied() << " pages copied by " << forks
        << " forks";
    // The golden run's own copies came before the counters were
    // reset, so the process-wide counts are the forks' alone.
    EXPECT_EQ(counters["isa.pages_copied"], fork.forkPagesCopied());
    EXPECT_EQ(counters["faults.fork_pages_compared"],
              fork.forkPagesCompared());
}

TEST(CampaignEngine, ShardInvariantAcrossJobs)
{
    EngineRun r = makeRun(kLoopSrc);
    CampaignSpec spec;
    spec.samples = 1500;
    spec.structures = structIq | structRegFile;
    spec.batchSamples = 256;
    spec.rootCauseTopN = 5;

    spec.jobs = 1;
    CampaignOutcome j1 = runCampaignEngine(r.program, r.trace,
                                           r.deadness, r.avf, spec);
    spec.jobs = 4;
    CampaignOutcome j4 = runCampaignEngine(r.program, r.trace,
                                           r.deadness, r.avf, spec);
    EXPECT_TRUE(sameOutcome(j1, j4))
        << "campaign tallies differ between 1 and 4 worker threads";
    EXPECT_EQ(j1.summary(), j4.summary());
}

TEST(CampaignEngine, CountsSumAndEarlyStop)
{
    EngineRun r = makeRun(kLoopSrc);
    CampaignSpec spec;
    spec.samples = 100000;
    spec.structures = structIq;
    spec.batchSamples = 512;
    spec.ciTarget = 0.05;  // loose: stops after a few batches
    CampaignOutcome out = runCampaignEngine(r.program, r.trace,
                                            r.deadness, r.avf, spec);
    EXPECT_TRUE(out.earlyStopped);
    EXPECT_LT(out.samplesRun, spec.samples);
    EXPECT_LE(out.ciHalfWidth, spec.ciTarget);
    ASSERT_EQ(out.structures.size(), 1u);
    std::uint64_t sum = 0;
    for (auto c : out.structures[0].tally.counts)
        sum += c;
    EXPECT_EQ(sum, out.samplesRun);
}

TEST(CampaignEngine, RegfileClassification)
{
    // r2 is written, read much later, then output: its live windows
    // make int-regfile strikes produce SDC under no protection and
    // detected DUE under parity; ECC corrects everything.
    EngineRun r = makeRun(kLoopSrc);
    CampaignSpec spec;
    spec.samples = 1200;
    spec.structures = structIntReg;

    spec.protection = Protection::None;
    CampaignOutcome none = runCampaignEngine(
        r.program, r.trace, r.deadness, r.avf, spec);
    ASSERT_EQ(none.structures.size(), 1u);
    const StructureCampaign &n = none.structures[0];
    EXPECT_EQ(n.structure, Structure::IntRegFile);
    EXPECT_GT(n.tally.count(Outcome::Sdc), 0u);
    EXPECT_EQ(n.tally.count(Outcome::TrueDue), 0u);
    EXPECT_EQ(n.tally.count(Outcome::FalseDue), 0u);
    EXPECT_EQ(n.tally.count(Outcome::Corrected), 0u);

    spec.protection = Protection::Parity;
    CampaignOutcome par = runCampaignEngine(
        r.program, r.trace, r.deadness, r.avf, spec);
    const StructureCampaign &p = par.structures[0];
    EXPECT_EQ(p.tally.count(Outcome::Sdc), 0u);
    EXPECT_GT(p.tally.count(Outcome::TrueDue), 0u);
    // Same sites, same reads: parity converts every unprotected SDC
    // into a detected event.
    EXPECT_EQ(p.tally.count(Outcome::TrueDue) +
                  p.tally.count(Outcome::FalseDue),
              n.tally.count(Outcome::Sdc) +
                  n.tally.count(Outcome::BenignNoError));

    spec.protection = Protection::Ecc;
    CampaignOutcome ecc = runCampaignEngine(
        r.program, r.trace, r.deadness, r.avf, spec);
    const StructureCampaign &e = ecc.structures[0];
    EXPECT_EQ(e.tally.count(Outcome::Sdc), 0u);
    EXPECT_EQ(e.tally.count(Outcome::TrueDue), 0u);
    EXPECT_EQ(e.tally.count(Outcome::FalseDue), 0u);
    EXPECT_GT(e.tally.count(Outcome::Corrected), 0u);
}

TEST(RunCacheKeys, CampaignKnobsNeverShareEntries)
{
    const std::string sim_key = "simkey";
    CampaignSpec base;
    base.samples = 1000;

    std::set<std::string> keys;
    keys.insert(harness::RunCache::campaignKey(sim_key, base));

    // Every semantic knob must move the key.
    CampaignSpec s = base;
    s.samples = 2000;
    keys.insert(harness::RunCache::campaignKey(sim_key, s));
    s = base;
    s.seed = 99;
    keys.insert(harness::RunCache::campaignKey(sim_key, s));
    s = base;
    s.protection = Protection::Parity;
    keys.insert(harness::RunCache::campaignKey(sim_key, s));
    s = base;
    s.payloadOnly = false;
    keys.insert(harness::RunCache::campaignKey(sim_key, s));
    s = base;
    s.structures = structRegFile;
    keys.insert(harness::RunCache::campaignKey(sim_key, s));
    s = base;
    s.ciTarget = 0.01;
    keys.insert(harness::RunCache::campaignKey(sim_key, s));
    s = base;
    s.batchSamples = 128;
    keys.insert(harness::RunCache::campaignKey(sim_key, s));
    s = base;
    s.checkpoints = 7;
    keys.insert(harness::RunCache::campaignKey(sim_key, s));
    s = base;
    s.rootCauseTopN = 3;
    keys.insert(harness::RunCache::campaignKey(sim_key, s));
    EXPECT_EQ(keys.size(), 10u)
        << "two specs differing in a semantic knob shared a key";

    // Non-semantic knobs (sharding, progress callbacks) must NOT:
    // a 4-thread campaign is byte-identical to a serial one and the
    // cache may share them.
    s = base;
    s.jobs = 8;
    s.onBatch = [](std::uint64_t, std::uint64_t) {};
    EXPECT_EQ(harness::RunCache::campaignKey(sim_key, s),
              harness::RunCache::campaignKey(sim_key, base));
}

TEST(RunCacheKeys, CampaignRidesSimKeyButSimIsShared)
{
    // Two experiment configs differing only in campaign knobs have
    // the same sim key (the whole point: one simulation feeds many
    // campaigns) but different campaign keys.
    isa::Program program = isa::assembleOrDie(
        "movi r4 = 1\nout r4\nhalt\n");
    harness::ExperimentConfig a;
    harness::ExperimentConfig b;
    b.campaign.samples = 500;
    b.campaign.protection = Protection::Parity;
    std::string sim_a =
        harness::RunCache::simKey(program, a, a.pipeline);
    std::string sim_b =
        harness::RunCache::simKey(program, b, b.pipeline);
    EXPECT_EQ(sim_a, sim_b);
    EXPECT_NE(
        harness::RunCache::campaignKey(sim_a, a.campaign),
        harness::RunCache::campaignKey(sim_b, b.campaign));
}

TEST(Wilson, EdgeCases)
{
    // n = 0: no information, the whole unit interval.
    Interval i = wilson(0, 0);
    EXPECT_DOUBLE_EQ(i.lo, 0.0);
    EXPECT_DOUBLE_EQ(i.hi, 1.0);

    // k = 0: the lower bound is exactly 0 (not a rounding residue),
    // so a zero-count CI covers an exact [0, 0] analytical band.
    i = wilson(0, 500);
    EXPECT_EQ(i.lo, 0.0);
    EXPECT_GT(i.hi, 0.0);
    EXPECT_LT(i.hi, 0.02);

    // k = n: symmetric at the top.
    i = wilson(500, 500);
    EXPECT_EQ(i.hi, 1.0);
    EXPECT_LT(i.lo, 1.0);
    EXPECT_GT(i.lo, 0.98);

    // Interior intervals stay within [0, 1] and shrink with n.
    Interval wide = wilson(5, 10);
    Interval narrow = wilson(500, 1000);
    EXPECT_GE(wide.lo, 0.0);
    EXPECT_LE(wide.hi, 1.0);
    EXPECT_LT(narrow.hi - narrow.lo, wide.hi - wide.lo);
}

TEST(CampaignProperty, ExhaustiveDueEqualsAnalyticalExactly)
{
    // The unbiasedness claim behind the parity DUE reconciliation,
    // checked without sampling noise: enumerating *every* (entry,
    // cycle) site in the window, the fraction the injector would
    // classify as a detected event (occupied, issued, pre-read)
    // must equal the analytical DUE AVF exactly — both sides count
    // precisely the pre-read occupied payload bit-cycles.
    EngineRun r = makeRun(kLoopSrc);
    ResidencyIndex index(r.trace);
    std::uint64_t pre = 0, total = 0;
    for (std::uint64_t c = r.trace.startCycle;
         c < r.trace.endCycle; ++c) {
        for (std::uint16_t e = 0; e < r.trace.iqEntries; ++e) {
            ++total;
            const std::int64_t rec = index.find(e, c);
            if (rec != ResidencyIndex::noIncarnation) {
                const std::uint32_t issue =
                    r.trace.incarnations
                        .issueCycle[static_cast<std::size_t>(rec)];
                if (issue != cpu::noCycle32 && c < issue)
                    ++pre;
            }
        }
    }
    double exhaustive =
        static_cast<double>(pre) / static_cast<double>(total);
    EXPECT_NEAR(exhaustive, r.avf.dueAvf(), 1e-12)
        << "injector-induced DUE probability drifted from the "
        << "analytical fold";
}

TEST(CampaignProperty, MeasuredCoversAnalyticalOnSurrogates)
{
    // The acceptance property, on three behaviourally distinct
    // workload surrogates: the measured payload-bit SDC rate's 95%
    // CI must cover the analytical SDC band (ACE conservatism:
    // measured <= field-refined ACE), and the measured DUE rate
    // under parity must cover the fold's DUE AVF point. Also pins
    // the checkpoint/fork economics: the mean forked re-run costs
    // under half a full golden replay.
    for (const char *bench : {"gzip", "mcf", "swim"}) {
        harness::ExperimentConfig cfg;
        cfg.dynamicTarget = 8000;
        cfg.warmupInsts = 500;
        cfg.campaign.samples = 2500;
        cfg.campaign.structures = structIq;

        for (auto prot : {Protection::None, Protection::Parity}) {
            cfg.campaign.protection = prot;
            harness::RunArtifacts run =
                harness::runBenchmark(bench, cfg);
            ASSERT_TRUE(run.campaign) << bench;
            const CampaignOutcome &c = *run.campaign;
            ASSERT_EQ(c.structures.size(), 1u);
            const StructureCampaign &s = c.structures[0];
            EXPECT_TRUE(s.sdcCovered)
                << bench << "/" << protectionName(prot) << ": SDC "
                << s.sdcRate() << " CI [" << s.sdcCi.lo << ", "
                << s.sdcCi.hi << "] vs [" << s.analyticalSdcLower
                << ", " << s.analyticalSdc << "]";
            // The parity DUE band is an exact point, so a fixed-seed
            // 95% CI misses it for ~5% of (bench, seed) pairs by
            // construction. The exactness itself is pinned by the
            // exhaustive test above; here allow 4 standard errors
            // (~99.99%) so the deterministic draw cannot fail on an
            // honest 2-sigma excursion.
            if (s.analyticalDueLower == s.analyticalDue) {
                double p = s.analyticalDue;
                double se = std::sqrt(
                    p * (1.0 - p) /
                    static_cast<double>(s.tally.samples));
                EXPECT_NEAR(s.dueRate(), p, 4.0 * se + 1e-9)
                    << bench << "/" << protectionName(prot);
            } else {
                EXPECT_TRUE(s.dueCovered)
                    << bench << "/" << protectionName(prot)
                    << ": DUE " << s.dueRate() << " CI ["
                    << s.dueCi.lo << ", " << s.dueCi.hi << "] vs ["
                    << s.analyticalDueLower << ", "
                    << s.analyticalDue << "]";
            }
            if (prot == Protection::None) {
                // Nontrivial on both sides: the surrogate must have
                // real ACE payload, and injection must find it.
                EXPECT_GT(s.sdcRate(), 0.0) << bench;
                EXPECT_GT(s.analyticalSdc, 0.0) << bench;
            } else {
                EXPECT_GT(s.dueRate(), 0.0) << bench;
            }
            if (c.reruns) {
                EXPECT_LT(c.meanRerunFraction(), 0.5)
                    << bench << ": forking must beat half a full "
                    << "golden replay per injection";
            }
        }
    }
}
