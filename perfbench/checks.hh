/**
 * @file
 * Output checks of the benchmark workloads.
 *
 * Every check compares a result of the simulator against a value
 * computed apart from it (an isa::Executor run, a naive fold written
 * here, a second sweep with the disk tier off) or against a property
 * the method must have (outcome counts sum to the samples drawn,
 * coverage grows with the PET size). A check returns the list of its
 * findings; an empty list means the result passed. checks_test.cc
 * perturbs real results and shows that each check then fails.
 */

#ifndef SERBENCH_CHECKS_HH
#define SERBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "core/pet_buffer.hh"
#include "cpu/trace.hh"
#include "faults/campaign_engine.hh"
#include "isa/program.hh"

namespace serbench
{

using Findings = std::vector<std::string>;

/** Order-sensitive digest of a committed instruction stream: every
 * (pc, qualifying predicate, memory address) triple in order. */
struct StreamDigest
{
    std::uint64_t count = 0;
    std::uint64_t hash = 0xcbf29ce484222325ULL;

    void add(std::uint32_t pc, bool qp_true, std::uint64_t mem_addr);
    bool operator==(const StreamDigest &) const = default;
};

/** Digest of the commit records of a finished timing run. */
StreamDigest digestCommits(const ser::cpu::SimTrace &trace);

/** A functional isa::Executor run of a program to its end. */
struct ExecutorRun
{
    StreamDigest stream;
    bool halted = false;
    std::uint64_t steps = 0;
    double seconds = 0.0;
};

/** Step an Executor from reset until it stops or max_steps pass. */
ExecutorRun runExecutor(const ser::isa::Program &program,
                        std::uint64_t max_steps);

/** The committed stream equals the executor's and both halted. */
Findings checkCommitStream(const std::string &what,
                           const ser::cpu::SimTrace &trace,
                           const ExecutorRun &reference);

/** The IQ occupancy classes partition totalBitCycles. */
Findings checkOccupancySum(const std::string &what,
                           const ser::avf::AvfResult &avf);

/**
 * Walk every resident cycle of every incarnation, adding the bits
 * of each class per cycle, and compare the sums with computeAvf's.
 * Idle bit-cycles come from a per-cycle count of occupied entries,
 * not from the difference of the other classes.
 */
Findings checkNaiveFold(const std::string &what,
                        const ser::cpu::SimTrace &trace,
                        const ser::avf::DeadnessResult &deadness,
                        const ser::avf::AvfResult &avf);

/** Outcome counts sum to the samples requested, with no early stop. */
Findings checkCampaignCounts(const std::string &what,
                             const ser::faults::CampaignOutcome &c,
                             std::uint64_t samples);

/**
 * The parity campaign of a program differs from its unprotected
 * campaign only in detected outcomes: the same sites rerun for the
 * same steps, and every unprotected SDC / read-benign outcome turns
 * into a true / false DUE or stays as it was.
 */
Findings checkProtectionPair(const std::string &what,
                             const ser::faults::CampaignOutcome &none,
                             const ser::faults::CampaignOutcome &parity);

/** The golden run is exactly as long as the executor's run, and
 * every measured IQ SDC CI starts at or below the analytical
 * whole-payload ACE. */
Findings checkCampaignReference(const std::string &what,
                                const ser::faults::CampaignOutcome &c,
                                std::uint64_t executor_steps);

/** Field-by-field equality of two AVF folds. */
Findings checkAvfEqual(const std::string &what,
                       const ser::avf::AvfResult &got,
                       const ser::avf::AvfResult &want);

/** Coverage of every category never decreases as the PET grows;
 * coverage[i] belongs to the i-th (ascending) size. */
Findings checkCoverageMonotone(
    const std::string &what,
    const std::vector<ser::core::PetCoverage> &coverage);

/** Equality of two coverage results. */
bool sameCoverage(const ser::core::PetCoverage &a,
                  const ser::core::PetCoverage &b);

} // namespace serbench

#endif // SERBENCH_CHECKS_HH
