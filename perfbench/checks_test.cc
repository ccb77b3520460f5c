/**
 * @file
 * Shows that no output check of the benchmark passes vacuously: each
 * check accepts a real result of the simulator and rejects the same
 * result after one small perturbation (a dropped commit, an altered
 * outcome count, an altered decoded AVF field, ...).
 *
 * Run: ctest in the benchmark's build directory, or the
 * serbench_checks_test binary directly (exit 0 = every check behaved).
 */

#include <iostream>
#include <string>
#include <utility>

#include "checks.hh"
#include "harness/cache_codec.hh"
#include "harness/experiment.hh"
#include "workloads/suite.hh"

using namespace ser;
using namespace serbench;

namespace
{

int failures = 0;

/** The check must pass on the real result. */
void
accepts(const std::string &name, const Findings &findings)
{
    if (!findings.empty()) {
        std::cerr << "FAIL " << name << " rejects a real result: "
                  << findings.front() << "\n";
        ++failures;
    } else {
        std::cout << "ok   " << name << " accepts the real result\n";
    }
}

/** The check must fail on the perturbed result. */
void
rejects(const std::string &name, const Findings &findings)
{
    if (findings.empty()) {
        std::cerr << "FAIL " << name
                  << " accepts a perturbed result\n";
        ++failures;
    } else {
        std::cout << "ok   " << name << " rejects it: "
                  << findings.front() << "\n";
    }
}

constexpr std::uint64_t insts = 20000;

harness::RunArtifacts
runGzip(const std::string &trigger, std::uint64_t samples,
        faults::Protection protection)
{
    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = insts;
    cfg.warmupInsts = insts / 10;
    cfg.triggerLevel = trigger;
    cfg.campaign.samples = samples;
    cfg.campaign.protection = protection;
    cfg.campaign.structures = faults::structIq | faults::structRegFile;
    return harness::runProgram(workloads::buildBenchmark("gzip", insts),
                               cfg, "gzip");
}

void
commitStream()
{
    harness::RunArtifacts r = runGzip("l1", 0, faults::Protection::None);
    ExecutorRun exec = runExecutor(*r.program, 2 * insts);
    accepts("commit stream", checkCommitStream("gzip", *r.trace, exec));

    cpu::SimTrace dropped = *r.trace;
    dropped.commits.erase(dropped.commits.begin() + 100);
    rejects("commit stream (a dropped commit)",
            checkCommitStream("gzip", dropped, exec));

    cpu::SimTrace moved = *r.trace;
    moved.commits[100].memAddr ^= 8;
    moved.commits[101].staticIdx ^= 1;
    rejects("commit stream (an altered commit)",
            checkCommitStream("gzip", moved, exec));

    cpu::SimTrace unhalted = *r.trace;
    unhalted.programHalted = false;
    rejects("commit stream (no halt)",
            checkCommitStream("gzip", unhalted, exec));

    accepts("occupancy sum", checkOccupancySum("gzip", *r.avf));
    avf::AvfResult shifted = *r.avf;
    shifted.idle += 64;
    rejects("occupancy sum (idle + 64)",
            checkOccupancySum("gzip", shifted));

    accepts("naive fold",
            checkNaiveFold("gzip", *r.trace, *r.deadness, *r.avf));
    avf::AvfResult ace = *r.avf;
    ace.ace += 1;
    rejects("naive fold (ace + 1)",
            checkNaiveFold("gzip", *r.trace, *r.deadness, ace));
    avf::AvfResult unread = *r.avf;
    unread.unAceRead[static_cast<int>(avf::UnAceSource::WrongPath)] -= 1;
    rejects("naive fold (wrong-path un-ACE - 1)",
            checkNaiveFold("gzip", *r.trace, *r.deadness, unread));
}

void
campaign()
{
    constexpr std::uint64_t samples = 200;
    harness::RunArtifacts none =
        runGzip("none", samples, faults::Protection::None);
    harness::RunArtifacts parity =
        runGzip("none", samples, faults::Protection::Parity);
    ExecutorRun exec = runExecutor(*none.program, 4 * insts);
    const faults::CampaignOutcome &n = *none.campaign;
    const faults::CampaignOutcome &p = *parity.campaign;

    accepts("campaign counts", checkCampaignCounts("none", n, samples));
    faults::CampaignOutcome more = n;
    more.structures[0].tally.counts[static_cast<std::size_t>(
        faults::Outcome::Sdc)] += 1;
    rejects("campaign counts (an extra SDC)",
            checkCampaignCounts("none", more, samples));
    faults::CampaignOutcome short_run = n;
    short_run.samplesRun -= 1;
    rejects("campaign counts (a sample short)",
            checkCampaignCounts("none", short_run, samples));

    accepts("protection pair", checkProtectionPair("gzip", n, p));
    faults::CampaignOutcome reran = p;
    reran.reruns += 1;
    rejects("protection pair (one more rerun)",
            checkProtectionPair("gzip", n, reran));
    // Move one outcome of the parity run between classes that parity
    // does not connect: from benign-not-read to false DUE.
    faults::CampaignOutcome moved = p;
    auto &counts = moved.structures[0].tally.counts;
    counts[static_cast<std::size_t>(faults::Outcome::BenignNotRead)] -= 1;
    counts[static_cast<std::size_t>(faults::Outcome::FalseDue)] += 1;
    rejects("protection pair (a benign outcome turned false DUE)",
            checkProtectionPair("gzip", n, moved));

    accepts("campaign reference",
            checkCampaignReference("none", n, exec.steps));
    rejects("campaign reference (executor one step longer)",
            checkCampaignReference("none", n, exec.steps + 1));
    faults::CampaignOutcome high = n;
    for (auto &s : high.structures)
        if (s.structure == faults::Structure::Iq)
            s.sdcCi.lo = s.analyticalSdc + 0.01;
    rejects("campaign reference (IQ SDC CI above the ACE bound)",
            checkCampaignReference("none", high, exec.steps));
}

void
diskRoundTrip()
{
    harness::RunArtifacts r = runGzip("none", 0, faults::Protection::None);
    std::string blob = harness::codec::encodeAvf(*r.avf);
    avf::AvfResult decoded;
    if (!harness::codec::decodeAvf(blob.data(), blob.size(), &decoded)) {
        std::cerr << "FAIL the AVF blob does not decode\n";
        ++failures;
        return;
    }
    accepts("AVF equality", checkAvfEqual("gzip", decoded, *r.avf));
    decoded.exAce ^= 1;
    rejects("AVF equality (a decoded field altered)",
            checkAvfEqual("gzip", decoded, *r.avf));

    std::vector<core::PetCoverage> coverage;
    for (std::uint32_t size : {32u, 512u, 16384u})
        coverage.push_back(core::petCoverage(*r.deadness, size));
    accepts("coverage monotone", checkCoverageMonotone("gzip", coverage));
    std::swap(coverage[0], coverage[2]);
    rejects("coverage monotone (sizes swapped)",
            checkCoverageMonotone("gzip", coverage));
}

} // namespace

int
main()
{
    commitStream();
    campaign();
    diskRoundTrip();
    if (failures) {
        std::cerr << failures << " check(s) misbehaved\n";
        return 1;
    }
    std::cout << "all checks accept real results and reject perturbed "
                 "ones\n";
    return 0;
}
