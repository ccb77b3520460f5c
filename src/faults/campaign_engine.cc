#include "campaign_engine.hh"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <sstream>

#include "avf/attribution.hh"
#include "avf/regfile_avf.hh"
#include "faults/fork_server.hh"
#include "faults/injector.hh"
#include "isa/isa.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/prof.hh"
#include "sim/rng.hh"

namespace ser
{
namespace faults
{

const char *
structureName(Structure structure)
{
    switch (structure) {
      case Structure::Iq: return "iq";
      case Structure::IntRegFile: return "int-regfile";
      case Structure::FpRegFile: return "fp-regfile";
      case Structure::PredRegFile: return "pred-regfile";
    }
    return "?";
}

unsigned
parseStructures(const std::string &csv)
{
    unsigned mask = 0;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item.empty())
            continue;
        if (item == "iq")
            mask |= structIq;
        else if (item == "regfile")
            mask |= structRegFile;
        else if (item == "int")
            mask |= structIntReg;
        else if (item == "fp")
            mask |= structFpReg;
        else if (item == "pred")
            mask |= structPredReg;
        else
            SER_PANIC("unknown campaign structure '{}' (expected "
                      "iq, regfile, int, fp, or pred)", item);
    }
    return mask;
}

std::string
structuresToString(unsigned mask)
{
    std::string out;
    auto add = [&](const char *name) {
        if (!out.empty())
            out += ',';
        out += name;
    };
    if (mask & structIq)
        add("iq");
    if ((mask & structRegFile) == structRegFile) {
        add("regfile");
    } else {
        if (mask & structIntReg)
            add("int");
        if (mask & structFpReg)
            add("fp");
        if (mask & structPredReg)
            add("pred");
    }
    return out;
}

std::string
CampaignSpec::cacheKey() const
{
    std::ostringstream os;
    os << "samples=" << samples << "|cseed=" << seed
       << "|prot=" << protectionName(protection)
       << "|payload=" << (payloadOnly ? 1 : 0)
       << "|structs=" << structures << "|ci=" << ciTarget
       << "|batch=" << batchSamples << "|ckpt=" << checkpoints
       << "|rootn=" << rootCauseTopN;
    return os.str();
}

const StructureCampaign *
CampaignOutcome::find(Structure structure) const
{
    for (const auto &sc : structures) {
        if (sc.structure == structure)
            return &sc;
    }
    return nullptr;
}

namespace
{

/**
 * Register-file residency: the same forward walk over the committed
 * stream that avf/regfile_avf performs, but materializing the value
 * windows so a sampled (file, reg, cycle) site can be classified.
 * A window covers [defCycle, closeCycle); lastReadCycle is the last
 * consumer's commit cycle and defCommit the producing commit's
 * index, which maps a strike to the dynamic step the ForkServer
 * must corrupt after.
 */
struct RegWindow
{
    std::uint64_t defCycle = 0;
    std::uint64_t closeCycle = 0;
    std::uint64_t lastReadCycle = 0;
    std::uint32_t defCommit = 0;
    bool read = false;
    bool dead = false;
};

class RegResidency
{
  public:
    RegResidency(const cpu::SimTrace &trace,
                 const avf::DeadnessResult &deadness)
        : _files{std::vector<std::vector<RegWindow>>(isa::numIntRegs),
                 std::vector<std::vector<RegWindow>>(isa::numFpRegs),
                 std::vector<std::vector<RegWindow>>(
                     isa::numPredRegs)}
    {
        if (!trace.program)
            SER_PANIC("RegResidency: trace has no program");
        const isa::Program &program = *trace.program;

        _commitCycle.assign(trace.commits.size(), 0);
        for (const auto &inc : trace.incarnations) {
            if ((inc.flags & cpu::incCommitted) &&
                inc.oracleSeq != cpu::noSeq32 &&
                inc.oracleSeq < _commitCycle.size())
                _commitCycle[inc.oracleSeq] = inc.evictCycle;
        }

        struct Open
        {
            RegWindow window;
            bool open = false;
        };
        std::array<std::vector<Open>, 3> live{
            std::vector<Open>(isa::numIntRegs),
            std::vector<Open>(isa::numFpRegs),
            std::vector<Open>(isa::numPredRegs)};

        auto close = [&](int file, std::size_t reg,
                         std::uint64_t cycle) {
            Open &o = live[static_cast<std::size_t>(file)][reg];
            if (!o.open)
                return;
            o.window.closeCycle = std::max(cycle, o.window.defCycle);
            _files[static_cast<std::size_t>(file)][reg].push_back(
                o.window);
            o.open = false;
        };
        auto def = [&](int file, std::size_t reg,
                       std::uint64_t cycle, std::uint32_t commit,
                       bool dead) {
            close(file, reg, cycle);
            Open &o = live[static_cast<std::size_t>(file)][reg];
            o.open = true;
            o.window = RegWindow{cycle, cycle, cycle, commit, false,
                                 dead};
        };
        auto read = [&](int file, std::size_t reg,
                        std::uint64_t cycle) {
            Open &o = live[static_cast<std::size_t>(file)][reg];
            if (!o.open)
                return;  // reading architectural init state
            o.window.read = true;
            if (cycle > o.window.lastReadCycle)
                o.window.lastReadCycle = cycle;
        };
        auto file_of = [](isa::RegClass rc) {
            switch (rc) {
              case isa::RegClass::Int: return 0;
              case isa::RegClass::Fp: return 1;
              case isa::RegClass::Pred: return 2;
              case isa::RegClass::None: break;
            }
            return -1;
        };

        for (std::size_t i = 0; i < trace.commits.size(); ++i) {
            const auto &cr = trace.commits[i];
            const isa::StaticInst &inst = program.inst(cr.staticIdx);
            const isa::OpInfo &oi = inst.info();
            std::uint64_t cycle = _commitCycle[i];

            if (inst.qp() != 0)
                read(2, inst.qp(), cycle);
            if (cr.qpTrue) {
                if (int f = file_of(oi.src1Class); f >= 0)
                    read(f, inst.src1(), cycle);
                if (int f = file_of(oi.src2Class); f >= 0)
                    read(f, inst.src2(), cycle);
                if (inst.hasDst()) {
                    if (int f = file_of(inst.dstClass()); f >= 0) {
                        def(f, inst.dst(), cycle,
                            static_cast<std::uint32_t>(i),
                            deadness.isDead(i));
                    }
                }
            }
        }
        for (std::size_t f = 0; f < 3; ++f) {
            for (std::size_t r = 0; r < live[f].size(); ++r)
                close(static_cast<int>(f), r, trace.endCycle);
        }
    }

    /** The window holding (file, reg) at 'cycle', or nullptr. */
    const RegWindow *
    find(int file, std::size_t reg, std::uint64_t cycle) const
    {
        const auto &vec = _files[static_cast<std::size_t>(file)][reg];
        auto it = std::upper_bound(
            vec.begin(), vec.end(), cycle,
            [](std::uint64_t c, const RegWindow &w) {
                return c < w.defCycle;
            });
        if (it == vec.begin())
            return nullptr;
        const RegWindow *w = &*(it - 1);
        return cycle < w->closeCycle ? w : nullptr;
    }

    /** Dynamic step count after which a strike at 'cycle' lands:
     * every commit with commit cycle <= cycle has executed. */
    std::uint64_t
    stepFor(std::uint64_t cycle) const
    {
        auto it = std::upper_bound(_commitCycle.begin(),
                                   _commitCycle.end(), cycle);
        return static_cast<std::uint64_t>(it - _commitCycle.begin());
    }

  private:
    // Indexed [file][reg]: 0 = int, 1 = fp, 2 = pred. Windows are in
    // defCycle order because the commit stream is walked in order.
    std::array<std::vector<std::vector<RegWindow>>, 3> _files;
    std::vector<std::uint64_t> _commitCycle;
};

/** One classified sample, written into an index-addressed slot. */
struct SampleRecord
{
    Outcome outcome = Outcome::BenignNoBit;
    std::uint8_t structureIdx = 0;
    std::uint32_t staticIdx = cpu::noSeq32;
    bool reRan = false;
    std::uint64_t rerunSteps = 0;
};

struct StructSpace
{
    Structure structure;
    std::uint64_t units;  ///< entries or registers
    std::uint64_t bits;   ///< bits per unit
    std::uint64_t weight() const { return units * bits; }
};

RegClass
regClassOf(Structure structure)
{
    switch (structure) {
      case Structure::IntRegFile: return RegClass::Int;
      case Structure::FpRegFile: return RegClass::Fp;
      case Structure::PredRegFile: return RegClass::Pred;
      case Structure::Iq: break;
    }
    SER_PANIC("regClassOf: not a register file structure");
}

/** CI overlap with an analytical [lo, hi] band. */
bool
covers(const Interval &ci, double lo, double hi)
{
    return ci.lo <= hi && ci.hi >= lo;
}

} // namespace

CampaignOutcome
runCampaignEngine(const isa::Program &program,
                  const cpu::SimTrace &trace,
                  const avf::DeadnessResult &deadness,
                  const avf::AvfResult &avf, const CampaignSpec &spec)
{
    SER_PROF_SCOPE("campaign");

    CampaignOutcome out;
    out.samplesRequested = spec.samples;
    out.seed = spec.seed;
    out.protection = spec.protection;
    out.payloadOnly = spec.payloadOnly;
    out.ciTarget = spec.ciTarget;
    out.batchSamples = spec.batchSamples;
    if (spec.samples == 0 || spec.structures == 0)
        return out;

    // The sampled site space: one entry per enabled structure,
    // weighted by its bit capacity (every structure shares the same
    // window, so per-cycle weights reduce to bits).
    std::vector<StructSpace> spaces;
    if (spec.structures & structIq) {
        spaces.push_back({Structure::Iq, trace.iqEntries,
                          static_cast<std::uint64_t>(
                              spec.payloadOnly ? payloadBits
                                               : entryBits)});
    }
    if (spec.structures & structIntReg)
        spaces.push_back({Structure::IntRegFile, isa::numIntRegs, 64});
    if (spec.structures & structFpReg)
        spaces.push_back({Structure::FpRegFile, isa::numFpRegs, 64});
    if (spec.structures & structPredReg)
        spaces.push_back(
            {Structure::PredRegFile, isa::numPredRegs, 1});
    std::uint64_t totalWeight = 0;
    for (const auto &space : spaces)
        totalWeight += space.weight();

    // Golden run + checkpoints, shared by every injection.
    std::uint64_t budget = trace.commits.size() * 2 + 10000;
    ForkServer fork(program, budget, spec.checkpoints);
    out.goldenSteps = fork.goldenSteps();
    out.checkpoints = fork.numCheckpoints();

    FaultInjector injector(program, trace, fork.goldenOutput(),
                           budget);
    injector.attachForkServer(&fork);

    bool wantRegs = (spec.structures & structRegFile) != 0;
    std::optional<RegResidency> regs;
    if (wantRegs)
        regs.emplace(trace, deadness);

    auto classify = [&](std::uint64_t index) {
        Rng rng = Rng::keyed(spec.seed, index);
        SampleRecord rec;
        // Draw order is fixed: structure, unit, bit, cycle — a
        // sample's site is a pure function of (seed, index).
        std::uint64_t pick = rng.range(totalWeight);
        std::size_t si = 0;
        while (si + 1 < spaces.size() &&
               pick >= spaces[si].weight()) {
            pick -= spaces[si].weight();
            ++si;
        }
        const StructSpace &space = spaces[si];
        rec.structureIdx = static_cast<std::uint8_t>(si);
        std::uint64_t unit = rng.range(space.units);
        int bit = static_cast<int>(rng.range(space.bits));
        std::uint64_t cycle = sampleWindowCycle(
            rng, trace.startCycle, trace.endCycle);

        if (space.structure == Structure::Iq) {
            FaultSite site{static_cast<std::uint16_t>(unit),
                           static_cast<std::uint8_t>(bit), cycle};
            FaultResult fr = injector.classify(site, spec.protection);
            rec.outcome = fr.outcome;
            rec.reRan = fr.reRan;
            rec.rerunSteps = fr.rerunSteps;
            if (fr.incarnationIndex >= 0) {
                rec.staticIdx =
                    trace.incarnations[static_cast<std::size_t>(
                                           fr.incarnationIndex)]
                        .staticIdx;
            }
            return rec;
        }

        const RegWindow *w = regs->find(
            space.structure == Structure::IntRegFile   ? 0
            : space.structure == Structure::FpRegFile ? 1
                                                      : 2,
            unit, cycle);
        if (!w)
            return rec;  // unwritten / between value windows
        rec.staticIdx = trace.commits[w->defCommit].staticIdx;
        // A strike at the last-read cycle lands after that read (the
        // analytical fold charges ACE over [def, lastRead)), so
        // read-after is strict.
        bool read_after = w->read && cycle < w->lastReadCycle;
        if (spec.protection == Protection::Ecc) {
            rec.outcome = read_after ? Outcome::Corrected
                                     : Outcome::BenignNotRead;
            return rec;
        }
        if (!read_after) {
            rec.outcome = Outcome::BenignNotRead;
            return rec;
        }
        ForkServer::Verdict verdict = fork.corruptRegister(
            regs->stepFor(cycle), regClassOf(space.structure),
            static_cast<int>(unit), bit);
        rec.reRan = true;
        rec.rerunSteps = verdict.steps;
        if (spec.protection == Protection::Parity) {
            rec.outcome = verdict.changed ? Outcome::TrueDue
                                          : Outcome::FalseDue;
        } else {
            rec.outcome = verdict.changed ? Outcome::Sdc
                                          : Outcome::BenignNoError;
        }
        return rec;
    };

    // Tallies, folded in sample order.
    std::vector<CampaignResult> tallies(spaces.size());
    std::map<std::uint32_t, std::uint64_t> sdcByPc;

    std::uint64_t batch = std::max<std::uint64_t>(
        1, spec.batchSamples);
    std::vector<SampleRecord> records;
    std::uint64_t done = 0;
    while (done < spec.samples) {
        std::uint64_t n = std::min(batch, spec.samples - done);
        records.resize(n);
        ser::parallelFor(
            static_cast<std::size_t>(n), spec.jobs,
            [&](std::size_t i) {
                records[i] = classify(done + i);
            });
        for (const SampleRecord &rec : records) {
            CampaignResult &tally = tallies[rec.structureIdx];
            ++tally.samples;
            ++tally.counts[static_cast<std::size_t>(rec.outcome)];
            if (rec.reRan) {
                ++out.reruns;
                out.rerunSteps += rec.rerunSteps;
            }
            bool sdc_producing =
                rec.outcome == Outcome::Sdc ||
                rec.outcome == Outcome::TrueDue;
            if (sdc_producing && rec.staticIdx != cpu::noSeq32)
                ++sdcByPc[rec.staticIdx];
        }
        done += n;
        if (spec.onBatch)
            spec.onBatch(done, spec.samples);

        // Adaptive early stop, evaluated only at batch boundaries so
        // the stopping point is a pure function of the fold so far.
        // The same per-structure CIs become one point of the
        // convergence time-series.
        ConvergencePoint point;
        point.batch = out.convergence.size();
        point.samples = done;
        point.structures.reserve(tallies.size());
        double widest = 0.0;
        for (std::size_t si = 0; si < tallies.size(); ++si) {
            const CampaignResult &tally = tallies[si];
            Interval sdc = wilson(tally.count(Outcome::Sdc),
                                  tally.samples);
            Interval due = wilson(tally.count(Outcome::TrueDue) +
                                      tally.count(Outcome::FalseDue),
                                  tally.samples);
            ConvergencePoint::StructurePoint sp;
            sp.structure = spaces[si].structure;
            sp.samples = tally.samples;
            sp.sdcRate = tally.sdcRate();
            sp.sdcHalfWidth = (sdc.hi - sdc.lo) / 2.0;
            sp.dueRate = tally.dueRate();
            sp.dueHalfWidth = (due.hi - due.lo) / 2.0;
            point.structures.push_back(sp);
            widest = std::max({widest, sp.sdcHalfWidth,
                               sp.dueHalfWidth});
        }
        point.worstHalfWidth = widest;
        out.convergence.push_back(point);
        if (spec.onConvergence)
            spec.onConvergence(point);
        out.ciHalfWidth = widest;
        if (spec.ciTarget > 0.0 && widest <= spec.ciTarget &&
            done < spec.samples) {
            out.earlyStopped = true;
            break;
        }
    }
    out.samplesRun = done;
    out.forkPagesCopied = fork.forkPagesCopied();
    out.forkPagesCompared = fork.forkPagesCompared();

    // Analytical reconciliation bands (see file comment; the band
    // collapses to [0, 0] for classes the protection eliminates).
    avf::RegFileAvfResult regAvf;
    if (wantRegs)
        regAvf = avf::computeRegFileAvf(trace, deadness);

    for (std::size_t si = 0; si < spaces.size(); ++si) {
        StructureCampaign sc;
        sc.structure = spaces[si].structure;
        sc.weight = spaces[si].weight();
        sc.tally = tallies[si];
        sc.sdcCi = wilson(sc.tally.count(Outcome::Sdc),
                          sc.tally.samples);
        sc.dueCi = wilson(sc.tally.count(Outcome::TrueDue) +
                              sc.tally.count(Outcome::FalseDue),
                          sc.tally.samples);

        if (spec.protection == Protection::None) {
            if (sc.structure == Structure::Iq) {
                // ACE analysis is one-sided: every refinement still
                // overestimates ground truth (an instruction marked
                // ACE has many payload bits whose flip the oracle
                // proves harmless), so the tightest analytical
                // statement is measured SDC <= field-refined ACE.
                // The gap below it is the ACE derating factor the
                // related work (Wang et al.) measures.
                sc.analyticalSdc = avf.sdcAvfRefined();
                sc.analyticalSdcLower = 0.0;
            } else {
                const avf::RegFileAvf &f =
                    sc.structure == Structure::IntRegFile
                        ? regAvf.intFile
                        : sc.structure == Structure::FpRegFile
                              ? regAvf.fpFile
                              : regAvf.predFile;
                sc.analyticalSdc = f.sdcAvf();
                sc.analyticalSdcLower = 0.0;
            }
            // No detection: nothing can signal a DUE.
        } else if (spec.protection == Protection::Parity) {
            if (sc.structure == Structure::Iq) {
                // Measured DUE counts exactly the pre-read occupied
                // bit-cycles the fold splits into ACE + read un-ACE:
                // an unbiased point estimate, not a bound.
                sc.analyticalDue = avf.dueAvf();
                sc.analyticalDueLower = avf.dueAvf();
            } else {
                const avf::RegFileAvf &f =
                    sc.structure == Structure::IntRegFile
                        ? regAvf.intFile
                        : sc.structure == Structure::FpRegFile
                              ? regAvf.fpFile
                              : regAvf.predFile;
                // Live windows signal over [def, lastRead) exactly;
                // dead windows are charged whole analytically but
                // only their read-before portion signals.
                sc.analyticalDueLower = f.frac(f.ace);
                sc.analyticalDue = f.frac(f.ace) + f.falseDueAvf();
            }
        }
        sc.sdcCovered = covers(sc.sdcCi, sc.analyticalSdcLower,
                               sc.analyticalSdc);
        sc.dueCovered = covers(sc.dueCi, sc.analyticalDueLower,
                               sc.analyticalDue);
        out.structures.push_back(sc);
    }

    // Per-PC root causes of the measured SDCs, joined with the
    // analytical attribution's ACE shares.
    if (spec.rootCauseTopN > 0 && !sdcByPc.empty()) {
        avf::AttributionResult attr = attributeAvf(trace, deadness);
        std::uint64_t totalSdc = 0;
        for (const auto &[pc, count] : sdcByPc)
            totalSdc += count;
        std::vector<RootCause> causes;
        causes.reserve(sdcByPc.size());
        for (const auto &[pc, count] : sdcByPc) {
            RootCause rc;
            rc.staticIdx = pc;
            rc.sdcInjections = count;
            rc.measuredShare =
                static_cast<double>(count) /
                static_cast<double>(totalSdc);
            for (const auto &pa : attr.pcs) {
                if (pa.staticIdx == pc) {
                    rc.analyticalAceShare = attr.aceShare(pa);
                    break;
                }
            }
            causes.push_back(rc);
        }
        std::sort(causes.begin(), causes.end(),
                  [](const RootCause &a, const RootCause &b) {
                      if (a.sdcInjections != b.sdcInjections)
                          return a.sdcInjections > b.sdcInjections;
                      return a.staticIdx < b.staticIdx;
                  });
        if (causes.size() > spec.rootCauseTopN)
            causes.resize(spec.rootCauseTopN);
        out.rootCauses = std::move(causes);
    }
    return out;
}

std::string
CampaignOutcome::summary() const
{
    std::ostringstream os;
    os << "campaign: " << samplesRun << "/" << samplesRequested
       << " samples, protection " << protectionName(protection);
    if (earlyStopped)
        os << ", early stop (CI half-width " << ciHalfWidth * 100
           << "% <= target " << ciTarget * 100 << "%)";
    os << "\n  re-runs " << reruns << ", mean forked cost "
       << meanRerunFraction() * 100 << "% of a full replay ("
       << checkpoints << " checkpoints, golden " << goldenSteps
       << " steps)\n";
    for (const auto &sc : structures) {
        os << "  " << structureName(sc.structure) << ": "
           << sc.tally.samples << " samples, SDC "
           << sc.sdcRate() * 100 << "% [" << sc.sdcCi.lo * 100
           << ", " << sc.sdcCi.hi * 100 << "] vs analytical ["
           << sc.analyticalSdcLower * 100 << ", "
           << sc.analyticalSdc * 100 << "] ("
           << (sc.sdcCovered ? "covered" : "NOT covered")
           << "), DUE " << sc.dueRate() * 100 << "% ["
           << sc.dueCi.lo * 100 << ", " << sc.dueCi.hi * 100
           << "] vs [" << sc.analyticalDueLower * 100 << ", "
           << sc.analyticalDue * 100 << "] ("
           << (sc.dueCovered ? "covered" : "NOT covered") << ")\n";
    }
    return os.str();
}

} // namespace faults
} // namespace ser
