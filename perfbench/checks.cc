#include "checks.hh"

#include <chrono>
#include <sstream>

#include "isa/executor.hh"
#include "isa/static_inst.hh"

namespace serbench
{

using namespace ser;

namespace
{

template <typename... Args>
std::string
cat(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

void
expectEq(Findings &out, const std::string &what, const char *field,
         std::uint64_t got, std::uint64_t want)
{
    if (got != want)
        out.push_back(cat(what, ": ", field, " is ", got, ", expected ",
                          want));
}

/** The address a commit record keeps: loads and stores whose
 * predicate held; every other instruction records 0. */
std::uint64_t
committedAddr(const isa::StaticInst &inst, bool qp_true,
              std::uint64_t addr)
{
    return qp_true && inst.isMem() && !inst.isPrefetch() ? addr : 0;
}

} // namespace

void
StreamDigest::add(std::uint32_t pc, bool qp_true, std::uint64_t mem_addr)
{
    constexpr std::uint64_t prime = 0x100000001b3ULL;
    auto mix = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= prime;
        }
    };
    mix(pc);
    mix(qp_true ? 1 : 0);
    mix(mem_addr);
    ++count;
}

StreamDigest
digestCommits(const cpu::SimTrace &trace)
{
    StreamDigest d;
    for (const cpu::CommitRecord &cr : trace.commits)
        d.add(cr.staticIdx, cr.qpTrue != 0, cr.memAddr);
    return d;
}

ExecutorRun
runExecutor(const isa::Program &program, std::uint64_t max_steps)
{
    auto start = std::chrono::steady_clock::now();
    ExecutorRun run;
    isa::Executor executor(program);
    isa::StepInfo info;
    while (run.steps < max_steps) {
        isa::Termination term = executor.step(&info);
        if (term == isa::Termination::Trap)
            break;
        ++run.steps;
        run.stream.add(info.pc, info.qpTrue,
                       committedAddr(info.inst, info.qpTrue,
                                     info.memAddr));
        if (term == isa::Termination::Halted) {
            run.halted = true;
            break;
        }
    }
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    return run;
}

Findings
checkCommitStream(const std::string &what, const cpu::SimTrace &trace,
                  const ExecutorRun &reference)
{
    Findings out;
    if (!reference.halted)
        out.push_back(what + ": the executor run did not halt");
    if (!trace.programHalted)
        out.push_back(what + ": the timing run did not halt");
    StreamDigest got = digestCommits(trace);
    expectEq(out, what, "committed instructions", got.count,
             reference.stream.count);
    if (got.count == reference.stream.count &&
        got.hash != reference.stream.hash)
        out.push_back(what + ": committed stream differs from the "
                             "executor's");
    return out;
}

Findings
checkOccupancySum(const std::string &what, const avf::AvfResult &avf)
{
    std::uint64_t sum = avf.idle + avf.exAce + avf.squashedUnread +
                        avf.ace;
    for (int s = 0; s < avf::numUnAceSources; ++s)
        sum += avf.unAceRead[s] + avf.unAceUnread[s];
    Findings out;
    expectEq(out, what, "sum of occupancy classes", sum,
             avf.totalBitCycles);
    if (avf.totalBitCycles == 0)
        out.push_back(what + ": empty AVF window");
    return out;
}

Findings
checkNaiveFold(const std::string &what, const cpu::SimTrace &trace,
               const avf::DeadnessResult &deadness,
               const avf::AvfResult &avf)
{
    constexpr std::uint64_t bits = 64;
    const std::uint64_t wlo = trace.startCycle;
    const std::uint64_t whi = trace.endCycle;
    Findings out;
    if (whi <= wlo) {
        out.push_back(what + ": empty AVF window");
        return out;
    }
    std::vector<std::uint32_t> occupied(whi - wlo, 0);
    std::uint64_t exAce = 0, squashed = 0, ace = 0, aceRefined = 0;
    std::uint64_t unAceRead[avf::numUnAceSources] = {};
    std::vector<avf::FddExposure> exposures;

    for (const cpu::IncarnationRecord &inc : trace.incarnations) {
        avf::IncarnationClass c =
            avf::classifyIncarnation(trace, deadness, inc);
        std::uint64_t exposed = 0;
        for (std::uint64_t cyc = c.preLo; cyc < c.preHi; ++cyc) {
            ++occupied[cyc - wlo];
            if (!c.issued) {
                squashed += bits;
                continue;
            }
            ace += c.aceRate;
            aceRefined += c.aceRefinedRate;
            unAceRead[static_cast<int>(c.source)] += c.unAceReadRate;
            exposed += c.unAceReadRate;
        }
        for (std::uint64_t cyc = c.postLo; cyc < c.postHi; ++cyc) {
            ++occupied[cyc - wlo];
            exAce += bits;
        }
        if (c.issued && c.fddRegExposure && c.preHi > c.preLo)
            exposures.push_back({exposed, c.overwriteDist});
    }

    std::uint64_t idle = 0;
    for (std::uint32_t n : occupied) {
        if (n > trace.iqEntries) {
            out.push_back(cat(what, ": ", n, " incarnations share ",
                              trace.iqEntries, " IQ entries"));
            return out;
        }
        idle += (trace.iqEntries - n) * bits;
    }
    expectEq(out, what, "total bit-cycles", avf.totalBitCycles,
             trace.iqEntries * bits * (whi - wlo));
    expectEq(out, what, "idle", avf.idle, idle);
    expectEq(out, what, "exAce", avf.exAce, exAce);
    expectEq(out, what, "squashedUnread", avf.squashedUnread, squashed);
    expectEq(out, what, "ace", avf.ace, ace);
    expectEq(out, what, "aceRefined", avf.aceRefined, aceRefined);
    for (int s = 0; s < avf::numUnAceSources; ++s)
        expectEq(out, what,
                 avf::unAceSourceName(static_cast<avf::UnAceSource>(s)),
                 avf.unAceRead[s], unAceRead[s]);
    expectEq(out, what, "FDD-register exposures",
             avf.fddRegExposures.size(), exposures.size());
    if (avf.fddRegExposures.size() == exposures.size()) {
        for (std::size_t i = 0; i < exposures.size(); ++i) {
            const avf::FddExposure &a = avf.fddRegExposures[i];
            if (a.bitCycles != exposures[i].bitCycles ||
                a.overwriteDist != exposures[i].overwriteDist) {
                out.push_back(cat(what, ": FDD-register exposure ", i,
                                  " differs"));
                break;
            }
        }
    }
    return out;
}

Findings
checkCampaignCounts(const std::string &what,
                    const faults::CampaignOutcome &c,
                    std::uint64_t samples)
{
    Findings out;
    expectEq(out, what, "samples requested", c.samplesRequested,
             samples);
    expectEq(out, what, "samples run", c.samplesRun, samples);
    if (c.earlyStopped)
        out.push_back(what + ": stopped early");
    std::uint64_t total = 0;
    for (const faults::StructureCampaign &s : c.structures) {
        std::uint64_t sum = 0;
        for (std::uint64_t n : s.tally.counts)
            sum += n;
        expectEq(out, cat(what, " ", structureName(s.structure)),
                 "sum of outcome counts", sum, s.tally.samples);
        total += sum;
    }
    expectEq(out, what, "outcomes over all structures", total, samples);
    return out;
}

Findings
checkProtectionPair(const std::string &what,
                    const faults::CampaignOutcome &none,
                    const faults::CampaignOutcome &parity)
{
    using faults::Outcome;
    Findings out;
    expectEq(out, what, "parity reruns", parity.reruns, none.reruns);
    expectEq(out, what, "parity rerun steps", parity.rerunSteps,
             none.rerunSteps);
    expectEq(out, what, "parity golden steps", parity.goldenSteps,
             none.goldenSteps);
    if (none.structures.size() != parity.structures.size()) {
        out.push_back(what + ": structure lists differ");
        return out;
    }
    for (std::size_t i = 0; i < none.structures.size(); ++i) {
        const faults::CampaignResult &a = none.structures[i].tally;
        const faults::CampaignResult &b = parity.structures[i].tally;
        std::string s = cat(what, " ",
                            structureName(none.structures[i].structure));
        expectEq(out, s, "samples", b.samples, a.samples);
        for (Outcome o : {Outcome::BenignNoBit, Outcome::BenignNotRead,
                          Outcome::Corrected})
            expectEq(out, s, faults::outcomeName(o), b.count(o),
                     a.count(o));
        // Undetected under no protection, detected under parity.
        expectEq(out, s, "output-changing outcomes",
                 b.count(Outcome::Sdc) + b.count(Outcome::TrueDue),
                 a.count(Outcome::Sdc) + a.count(Outcome::TrueDue));
        expectEq(out, s, "read un-ACE outcomes",
                 b.count(Outcome::BenignNoError) +
                     b.count(Outcome::FalseDue),
                 a.count(Outcome::BenignNoError) +
                     a.count(Outcome::FalseDue));
        expectEq(out, s, "unprotected detections",
                 a.count(Outcome::TrueDue) + a.count(Outcome::FalseDue),
                 0);
    }
    return out;
}

Findings
checkCampaignReference(const std::string &what,
                       const faults::CampaignOutcome &c,
                       std::uint64_t executor_steps)
{
    Findings out;
    expectEq(out, what, "golden steps", c.goldenSteps, executor_steps);
    const faults::StructureCampaign *iq =
        c.find(faults::Structure::Iq);
    if (!iq)
        out.push_back(what + ": no IQ campaign");
    else if (iq->sdcCi.lo > iq->analyticalSdc)
        out.push_back(cat(what, ": IQ SDC CI starts at ", iq->sdcCi.lo,
                          ", above the analytical ACE ",
                          iq->analyticalSdc));
    return out;
}

Findings
checkAvfEqual(const std::string &what, const avf::AvfResult &got,
              const avf::AvfResult &want)
{
    Findings out;
    expectEq(out, what, "windowCycles", got.windowCycles,
             want.windowCycles);
    expectEq(out, what, "totalBitCycles", got.totalBitCycles,
             want.totalBitCycles);
    expectEq(out, what, "idle", got.idle, want.idle);
    expectEq(out, what, "exAce", got.exAce, want.exAce);
    expectEq(out, what, "squashedUnread", got.squashedUnread,
             want.squashedUnread);
    expectEq(out, what, "ace", got.ace, want.ace);
    expectEq(out, what, "aceRefined", got.aceRefined, want.aceRefined);
    for (int s = 0; s < avf::numUnAceSources; ++s) {
        const char *name =
            avf::unAceSourceName(static_cast<avf::UnAceSource>(s));
        expectEq(out, what, name, got.unAceRead[s], want.unAceRead[s]);
        expectEq(out, what, name, got.unAceUnread[s],
                 want.unAceUnread[s]);
    }
    expectEq(out, what, "FDD-register exposures",
             got.fddRegExposures.size(), want.fddRegExposures.size());
    for (std::size_t i = 0; i < got.fddRegExposures.size() &&
                            i < want.fddRegExposures.size();
         ++i) {
        if (got.fddRegExposures[i].bitCycles !=
                want.fddRegExposures[i].bitCycles ||
            got.fddRegExposures[i].overwriteDist !=
                want.fddRegExposures[i].overwriteDist) {
            out.push_back(cat(what, ": FDD-register exposure ", i,
                              " differs"));
            break;
        }
    }
    expectEq(out, what, "epochs", got.epochs.size(), want.epochs.size());
    return out;
}

Findings
checkCoverageMonotone(const std::string &what,
                      const std::vector<core::PetCoverage> &coverage)
{
    Findings out;
    for (std::size_t i = 1; i < coverage.size(); ++i) {
        const core::PetCoverage &a = coverage[i - 1];
        const core::PetCoverage &b = coverage[i];
        if (b.coveredNonReturn < a.coveredNonReturn ||
            b.coveredReturn < a.coveredReturn ||
            b.coveredMem < a.coveredMem)
            out.push_back(cat(what, ": coverage falls from size step ",
                              i - 1, " to ", i));
        if (b.fddRegNonReturn != a.fddRegNonReturn ||
            b.fddRegReturn != a.fddRegReturn || b.fddMem != a.fddMem)
            out.push_back(cat(what, ": FDD population changes at size "
                                    "step ",
                              i));
    }
    return out;
}

bool
sameCoverage(const core::PetCoverage &a, const core::PetCoverage &b)
{
    return a.fddRegNonReturn == b.fddRegNonReturn &&
           a.fddRegReturn == b.fddRegReturn && a.fddMem == b.fddMem &&
           a.coveredNonReturn == b.coveredNonReturn &&
           a.coveredReturn == b.coveredReturn &&
           a.coveredMem == b.coveredMem;
}

} // namespace serbench
