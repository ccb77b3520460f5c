/**
 * @file
 * The benchmark program: times the simulator's two headline
 * computations (the Table-1 sweep and the fault-injection campaign)
 * and the warm disk tier, end to end and layer by layer.
 *
 * Usage: serbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--work-dir DIR]
 *
 * Workloads (README.md has their make-up and sizes):
 *
 *   table1_suite        26 surrogates x {no squash, squash on L1,
 *                       squash on L0} through harness::runProgram
 *   campaign_footprint  faults::runCampaignEngine on gzip and mcf x
 *                       {none, parity}, IQ + register files
 *   disk_resweep        the Figure-3 PET sweep answered from a disk
 *                       tier that setup fills cold
 *
 * A run sets up at least three times (setup_s is the median), then
 * runs passes until --seconds are used up. Every pass starts with an
 * empty in-memory RunCache and is checked after its timed region. The
 * last line of standard output is one JSON object: correct, attempted,
 * failed and the metrics. With --trace 0 the metrics are wall_s,
 * setup_s, cpu_s and peak_rss_mb; with --trace 1 the run makes one
 * untraced pass, then traced passes that call each module's public
 * functions directly and time them, checks that both give the same
 * outputs, and prints the per-layer metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "checks.hh"
#include "core/pet_buffer.hh"
#include "core/trigger.hh"
#include "cpu/pipeline.hh"
#include "faults/campaign_engine.hh"
#include "faults/fork_server.hh"
#include "harness/cache_codec.hh"
#include "harness/disk_cache.hh"
#include "harness/experiment.hh"
#include "harness/run_cache.hh"
#include "sim/crc64.hh"
#include "sim/json.hh"
#include "workloads/profile.hh"
#include "workloads/suite.hh"

using namespace ser;
using namespace serbench;

namespace
{

constexpr double MiB = 1024.0 * 1024.0;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / MiB;
}

/** Host wall and process CPU seconds of one timed region. */
struct Span
{
    double wall = 0.0;
    double cpu = 0.0;
};

template <typename F>
Span
timed(F &&body)
{
    double w = wallNow(), c = cpuNow();
    body();
    return {wallNow() - w, cpuNow() - c};
}

/** Wall seconds of one call, added to 'sum'. */
template <typename F>
auto
addTime(double &sum, F &&body)
{
    double start = wallNow();
    if constexpr (std::is_void_v<decltype(body())>) {
        body();
        sum += wallNow() - start;
    } else {
        auto value = body();
        sum += wallNow() - start;
        return value;
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The named surrogate with its generator seed mixed with the run's
 * seed: the same statistical profile, a different program. */
std::shared_ptr<const isa::Program>
buildSeeded(const std::string &name, std::uint64_t insts,
            std::uint64_t seed)
{
    workloads::BenchmarkProfile profile = workloads::findProfile(name);
    profile.seed = splitmix(profile.seed ^ splitmix(seed));
    return std::make_shared<const isa::Program>(
        workloads::buildBenchmark(profile, insts));
}

/** Per-layer metrics every traced run prints (0 where the layer does
 * no work in the workload; README.md maps each to its workload). */
const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = [] {
        std::vector<std::pair<std::string, std::string>> v = {
            {"cpu.pipeline_s", "s"},
            {"cpu.sim_kips", "kinst/s"},
            {"cpu.cycles_skipped", "count"},
            {"cpu.sim_cycles", "count"},
            {"cpu.committed_insts", "count"},
            {"cpu.wrong_path_fetched", "count"},
            {"memory.l0_misses", "count"},
            {"memory.l1_misses", "count"},
            {"memory.l2_misses", "count"},
            {"branch.mispredicts", "count"},
            {"core.trigger_squashes", "count"},
            {"core.pet_coverage_s", "s"},
            {"workloads.build_s", "s"},
            {"avf.deadness_s", "s"},
            {"avf.fold_s", "s"},
            {"avf.trace_mb", "MiB"},
            {"isa.executor_mips", "Minst/s"},
        };
        for (const char *b : {"gzip", "mcf"}) {
            std::string s = b;
            v.push_back({"faults.golden_s." + s, "s"});
            v.push_back({"faults.campaign_s." + s, "s"});
            v.push_back({"faults.ns_per_rerun_step." + s, "ns"});
            v.push_back({"faults.samples_per_s." + s, "1/s"});
            v.push_back({"faults.reruns." + s, "count"});
            v.push_back({"faults.rerun_steps." + s, "count"});
            v.push_back({"faults.golden_steps." + s, "count"});
        }
        v.insert(v.end(), {
                              {"sim.parallel_cpu_per_wall", "ratio"},
                              {"sim.crc64_mb_s", "MiB/s"},
                              {"harness.disk_read_s", "s"},
                              {"harness.disk_bytes_read", "B"},
                              {"harness.decode_s", "s"},
                              {"harness.disk_bytes_written", "B"},
                              {"harness.encode_s", "s"},
                              {"trace.overhead_s", "s"},
                          });
        return v;
    }();
    return m;
}

/** Layer values of one traced pass (or of setup). */
using Layers = std::map<std::string, double>;

/** What a run reports. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void check(const Findings &findings)
    {
        for (const std::string &f : findings) {
            std::cerr << "serbench: check failed: " << f << "\n";
            correct = false;
        }
    }

    void check(bool ok, const std::string &what)
    {
        if (!ok)
            check(Findings{what});
    }

    /** One operation: counted as attempted, and as failed if it
     * threw. */
    template <typename F>
    void op(const std::string &what, F &&body)
    {
        ++attempted;
        try {
            body();
        } catch (const std::exception &e) {
            std::cerr << "serbench: " << what << " failed: " << e.what()
                      << "\n";
            ++failed;
        }
    }
};

void
printResult(const Report &report,
            const std::vector<std::tuple<std::string, double,
                                         std::string>> &metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto &[name, value, unit] = metrics[i];
        os << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
           << value << ", \"unit\": \"" << unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/** Simulated counts of one run, read from its stats tree. */
struct SimCounts
{
    double cycles = 0, committed = 0, wrongPath = 0, l0 = 0, l1 = 0,
           l2 = 0, mispredicts = 0, triggerSquashes = 0;

    static SimCounts parse(const std::string &stats_json)
    {
        json::JsonValue root;
        if (!json::parseJson(stats_json, &root))
            throw std::runtime_error("unparsable stats JSON");
        auto num = [&](std::initializer_list<const char *> path) {
            const json::JsonValue *v = &root;
            for (const char *key : path) {
                v = v->find(key);
                if (!v)
                    throw std::runtime_error(
                        std::string("stats JSON lacks ") + key);
            }
            return v->number;
        };
        SimCounts c;
        c.cycles = num({"cpu", "cycles"});
        c.committed = num({"cpu", "committed"});
        c.wrongPath = num({"cpu", "wrong_path_fetched"});
        c.mispredicts = num({"cpu", "mispredicts"});
        c.triggerSquashes = num({"cpu", "trigger_squashes"});
        c.l0 = num({"cpu", "dcache", "l0", "misses"});
        c.l1 = num({"cpu", "dcache", "l1", "misses"});
        c.l2 = num({"cpu", "dcache", "l2", "misses"});
        return c;
    }

    void addTo(Layers &l) const
    {
        l["cpu.sim_cycles"] += cycles;
        l["cpu.committed_insts"] += committed;
        l["cpu.wrong_path_fetched"] += wrongPath;
        l["memory.l0_misses"] += l0;
        l["memory.l1_misses"] += l1;
        l["memory.l2_misses"] += l2;
        l["branch.mispredicts"] += mispredicts;
        l["core.trigger_squashes"] += triggerSquashes;
    }
};

/** The pipeline parameters runProgram actually simulates with. */
cpu::PipelineParams
effectiveParams(const harness::ExperimentConfig &cfg)
{
    cpu::PipelineParams params = cfg.pipeline;
    if (params.maxInsts < cfg.dynamicTarget * 2)
        params.maxInsts = cfg.dynamicTarget * 2;
    return params;
}

/**
 * One timing simulation through the cpu module's public interface:
 * the same steps as runProgram's simulation, with the pipeline's run
 * timed on its own.
 */
harness::SimProducts
simulateDirect(std::shared_ptr<const isa::Program> program,
               const harness::ExperimentConfig &cfg, Layers &layers)
{
    harness::SimProducts products;
    products.program = std::move(program);
    cpu::InOrderPipeline pipeline(*products.program,
                                  effectiveParams(cfg));
    auto policy =
        core::makeTriggerPolicy(cfg.triggerLevel, cfg.triggerAction);
    pipeline.setExposurePolicy(policy.get());
    pipeline.setWarmupInsts(cfg.warmupInsts);
    products.trace =
        addTime(layers["cpu.pipeline_s"], [&] { return pipeline.run(); });
    products.ipc = products.trace.ipc();
    products.poolHighWater = pipeline.poolHighWater();
    products.cyclesSkipped = pipeline.cyclesSkipped();
    std::ostringstream stats;
    {
        json::JsonWriter jw(stats);
        jw.beginObject();
        pipeline.dumpJson(jw);
        policy->dumpJson(jw);
        jw.endObject();
    }
    products.statsJson = stats.str();
    layers["cpu.cycles_skipped"] += static_cast<double>(
        products.cyclesSkipped);
    SimCounts::parse(products.statsJson).addTo(layers);
    return products;
}

/** A workload: setup, a timed pass and its traced twin. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** The program's own work that is not repeated per pass; called
     * at least three times and timed (setup_s). */
    virtual void setup(Report &report, Layers &layers) = 0;

    /** Once after the setups: the checks' reference computations (not
     * timed). */
    virtual void prepare(Report &report, Layers &layers) = 0;

    /** One pass; returns its timed region. Checks run after it. */
    virtual Span pass(Report &report) = 0;

    /** One traced pass: the same work through direct, timed calls;
     * its outputs are compared with the last untraced pass. */
    virtual void tracedPass(Report &report, Layers &layers) = 0;
};

// ---------------------------------------------------------------
// table1_suite
// ---------------------------------------------------------------

class Table1Suite : public Workload
{
  public:
    explicit Table1Suite(std::uint64_t seed) : _seed(seed)
    {
        _names = workloads::suiteNames();
        const char *triggers[] = {"none", "l1", "l0"};
        for (const char *t : triggers) {
            harness::ExperimentConfig cfg;
            cfg.dynamicTarget = insts;
            cfg.warmupInsts = insts / 10;
            cfg.triggerLevel = t;
            cfg.triggerAction = "squash";
            _configs.push_back(cfg);
        }
    }

    /** The Table-1 binary's one-off work: building the surrogates.
     * Each pass builds them again, as a whole sweep does. */
    void setup(Report &, Layers &) override
    {
        _programs.clear();
        for (const std::string &name : _names)
            _programs.push_back(buildSeeded(name, insts, _seed));
    }

    void prepare(Report &, Layers &layers) override
    {
        _refs.clear();
        double steps = 0, seconds = 0;
        for (const auto &program : _programs) {
            Reference ref;
            ref.programHash = harness::RunCache::programHash(*program);
            ref.exec = runExecutor(*program, 4 * insts);
            steps += static_cast<double>(ref.exec.steps);
            seconds += ref.exec.seconds;
            _refs.push_back(ref);
        }
        _programs.clear();
        layers["isa.executor_mips"] = steps / seconds / 1e6;
    }

    Span pass(Report &report) override
    {
        harness::RunCache::instance().clear();
        std::vector<harness::RunArtifacts> runs;
        Span span = timed([&] {
            for (const std::string &name : _names) {
                auto program = buildSeeded(name, insts, _seed);
                for (const harness::ExperimentConfig &cfg : _configs)
                    report.op(name, [&] {
                        runs.push_back(
                            harness::runProgram(program, cfg, name));
                    });
            }
        });
        if (runs.size() != _names.size() * _configs.size()) {
            report.check(false, "table1_suite: missing design points");
            return span;
        }
        _last.clear();
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const harness::RunArtifacts &r = runs[i];
            const Reference &ref = _refs[i / _configs.size()];
            std::string what =
                r.benchmark + "/" + _configs[i % _configs.size()]
                                        .triggerLevel;
            report.check(harness::RunCache::programHash(*r.program) ==
                             ref.programHash,
                         what + ": program differs from setup's build");
            report.check(checkCommitStream(what, *r.trace, ref.exec));
            report.check(checkOccupancySum(what, *r.avf));
            if (foldSubset(r.benchmark))
                report.check(checkNaiveFold(what, *r.trace, *r.deadness,
                                            *r.avf));
            _last.push_back({r.ipc, *r.avf, r.statsJson});
        }
        runs.clear();
        harness::RunCache::instance().clear();
        return span;
    }

    void tracedPass(Report &report, Layers &layers) override
    {
        std::size_t i = 0;
        for (const std::string &name : _names) {
            auto program = addTime(layers["workloads.build_s"], [&] {
                return buildSeeded(name, insts, _seed);
            });
            for (const harness::ExperimentConfig &cfg : _configs) {
                std::string what = name + "/" + cfg.triggerLevel;
                report.op(what, [&] {
                    harness::SimProducts sim =
                        simulateDirect(program, cfg, layers);
                    avf::DeadnessResult deadness =
                        addTime(layers["avf.deadness_s"], [&] {
                            return avf::analyzeDeadness(sim.trace);
                        });
                    avf::AvfResult result =
                        addTime(layers["avf.fold_s"], [&] {
                            return avf::computeAvf(sim.trace, deadness);
                        });
                    layers["avf.trace_mb"] +=
                        static_cast<double>(harness::approxBytes(sim)) /
                        MiB;
                    const Untraced &u = _last.at(i);
                    report.check(sim.ipc == u.ipc,
                                 what + ": traced IPC differs");
                    report.check(sim.statsJson == u.statsJson,
                                 what + ": traced stats differ");
                    report.check(checkAvfEqual(what + " traced", result,
                                               u.avf));
                });
                ++i;
            }
        }
        layers["cpu.sim_kips"] = layers["cpu.committed_insts"] /
                                 layers["cpu.pipeline_s"] / 1e3;
    }

  private:
    /** The Table-1 binary's default size. */
    static constexpr std::uint64_t insts = 300000;

    /** The surrogates whose AVF folds are re-done naively. */
    static bool foldSubset(const std::string &name)
    {
        return name == "gzip" || name == "mcf" || name == "swim";
    }

    struct Reference
    {
        std::uint64_t programHash = 0;
        ExecutorRun exec;
    };

    struct Untraced
    {
        double ipc = 0.0;
        avf::AvfResult avf;
        std::string statsJson;
    };

    std::uint64_t _seed;
    std::vector<std::string> _names;
    std::vector<harness::ExperimentConfig> _configs;
    std::vector<std::shared_ptr<const isa::Program>> _programs;
    std::vector<Reference> _refs;
    std::vector<Untraced> _last;
};

// ---------------------------------------------------------------
// campaign_footprint
// ---------------------------------------------------------------

class CampaignFootprint : public Workload
{
  public:
    /**
     * The programs are the surrogates themselves and the fault sites
     * the campaign binary's default draw: a campaign's cost is
     * heavy-tailed in its sites (a few mcf reruns run to the end of
     * the program), so sites drawn per seed would move wall time by
     * more than host noise does. The seed orders the campaigns.
     */
    explicit CampaignFootprint(std::uint64_t seed)
    {
        for (std::size_t b = 0; b < names.size(); ++b)
            for (std::size_t p = 0; p < protections.size(); ++p)
                _order.push_back({b, p});
        for (std::size_t i = _order.size() - 1; i > 0; --i) {
            seed = splitmix(seed);
            std::swap(_order[i], _order[seed % (i + 1)]);
        }
        _base.dynamicTarget = insts;
        _base.warmupInsts = insts / 10;
        _base.campaign.samples = 256;
        _base.campaign.seed = 0xFA117;
        _base.campaign.structures = faults::structIq |
                                    faults::structRegFile;
        _base.campaign.ciTarget = 0.0;
        _base.campaign.jobs = 2;
    }

    void setup(Report &, Layers &layers) override
    {
        _programs.clear();
        layers["workloads.build_s"] = 0;
        for (const char *name : names)
            _programs.push_back(addTime(layers["workloads.build_s"], [&] {
                return std::make_shared<const isa::Program>(
                    workloads::buildBenchmark(name, insts));
            }));
    }

    void prepare(Report &, Layers &layers) override
    {
        _exec.clear();
        double steps = 0, seconds = 0;
        for (const auto &program : _programs) {
            _exec.push_back(runExecutor(*program, 4 * insts));
            steps += static_cast<double>(_exec.back().steps);
            seconds += _exec.back().seconds;
        }
        layers["isa.executor_mips"] = steps / seconds / 1e6;
    }

    Span pass(Report &report) override
    {
        harness::RunCache::instance().clear();
        // Indexed [2 * benchmark + protection], whatever the order.
        std::vector<std::shared_ptr<const faults::CampaignOutcome>> out(
            _order.size());
        Span span = timed([&] {
            for (auto [b, p] : _order)
                report.op(names[b], [&] {
                    out[2 * b + p] =
                        harness::runProgram(_programs[b],
                                            config(protections[p]),
                                            names[b])
                            .campaign;
                });
        });
        harness::RunCache::instance().clear();
        for (const auto &c : out) {
            if (!c) {
                report.check(false, "campaign_footprint: missing "
                                    "campaigns");
                return span;
            }
        }
        _last = out;
        for (std::size_t b = 0; b < names.size(); ++b) {
            const auto &none = *out[2 * b];
            const auto &parity = *out[2 * b + 1];
            std::string what = names[b];
            report.check(checkCampaignCounts(what + "/none", none,
                                             samples()));
            report.check(checkCampaignCounts(what + "/parity", parity,
                                             samples()));
            report.check(checkProtectionPair(what, none, parity));
            for (const auto *c : {&none, &parity})
                report.check(checkCampaignReference(
                    what + "/" + faults::protectionName(c->protection),
                    *c, _exec[b].steps));
        }
        return span;
    }

    void tracedPass(Report &report, Layers &layers) override
    {
        harness::RunCache::instance().clear();
        double cpu = 0, wall = 0;
        for (std::size_t b = 0; b < names.size(); ++b) {
            const std::string b_name = names[b];
            harness::ExperimentConfig plain = _base;
            plain.campaign.samples = 0;
            harness::RunArtifacts run =
                harness::runProgram(_programs[b], plain, b_name);
            std::uint64_t budget = run.trace->commits.size() * 2 + 10000;
            addTime(layers["faults.golden_s." + b_name], [&] {
                faults::ForkServer golden(*_programs[b], budget,
                                          _base.campaign.checkpoints);
            });
            double &campaign_s = layers["faults.campaign_s." + b_name];
            double reruns = 0, steps = 0;
            for (std::size_t p = 0; p < protections.size(); ++p) {
                std::string what =
                    b_name + "/" + faults::protectionName(protections[p]);
                report.op(what, [&] {
                    faults::CampaignSpec spec =
                        config(protections[p]).campaign;
                    faults::CampaignOutcome c;
                    Span s = timed([&] {
                        c = faults::runCampaignEngine(
                            *_programs[b], *run.trace, *run.deadness,
                            *run.avf, spec);
                    });
                    campaign_s += s.wall;
                    wall += s.wall;
                    cpu += s.cpu;
                    reruns += static_cast<double>(c.reruns);
                    steps += static_cast<double>(c.rerunSteps);
                    layers["faults.golden_steps." + b_name] +=
                        static_cast<double>(c.goldenSteps);
                    report.check(c.summary() ==
                                     _last.at(2 * b + p)->summary(),
                                 what + ": traced campaign differs");
                });
            }
            layers["faults.reruns." + b_name] = reruns;
            layers["faults.rerun_steps." + b_name] = steps;
            layers["faults.ns_per_rerun_step." + b_name] =
                steps ? campaign_s * 1e9 / steps : 0.0;
            layers["faults.samples_per_s." + b_name] =
                static_cast<double>(samples() * protections.size()) /
                campaign_s;
        }
        layers["sim.parallel_cpu_per_wall"] = cpu / wall;
    }

  private:
    /** The fault-campaign binary's default program size. */
    static constexpr std::uint64_t insts = 60000;
    static inline const std::vector<const char *> names = {"gzip",
                                                           "mcf"};
    static inline const std::vector<faults::Protection> protections = {
        faults::Protection::None, faults::Protection::Parity};

    std::uint64_t samples() const { return _base.campaign.samples; }

    harness::ExperimentConfig config(faults::Protection p) const
    {
        harness::ExperimentConfig cfg = _base;
        cfg.campaign.protection = p;
        return cfg;
    }

    std::vector<std::pair<std::size_t, std::size_t>> _order;
    harness::ExperimentConfig _base;
    std::vector<std::shared_ptr<const isa::Program>> _programs;
    std::vector<ExecutorRun> _exec;
    std::vector<std::shared_ptr<const faults::CampaignOutcome>> _last;
};

// ---------------------------------------------------------------
// disk_resweep
// ---------------------------------------------------------------

class DiskResweep : public Workload
{
  public:
    DiskResweep(std::uint64_t seed, std::string work_dir, bool traced)
        : _seed(seed), _workDir(std::move(work_dir)), _traced(traced)
    {
        _names = workloads::suiteNames();
    }

    ~DiskResweep() override
    {
        harness::DiskCache::instance().setDirectory(
            "", harness::codec::kSchemaVersion);
        std::error_code ec;
        std::filesystem::remove_all(_workDir, ec);
    }

    void setup(Report &report, Layers &layers) override
    {
        std::error_code ec;
        std::filesystem::remove_all(_workDir, ec);
        // The disk tier makes only the last path component.
        std::filesystem::create_directories(_workDir);
        harness::DiskCache::instance().setDirectory(
            _workDir, harness::codec::kSchemaVersion);
        harness::RunCache::instance().clear();
        sweep(report, false);
        if (_traced)
            measureWrites(layers);
    }

    void prepare(Report &report, Layers &) override
    {
        // The same sweep with the disk tier off: the reference the
        // warm passes must reproduce.
        harness::DiskCache::instance().setDirectory(
            "", harness::codec::kSchemaVersion);
        harness::RunCache::instance().clear();
        _reference = sweep(report, false);
        harness::DiskCache::instance().setDirectory(
            _workDir, harness::codec::kSchemaVersion);
        for (std::size_t b = 0; b < _names.size(); ++b) {
            std::vector<core::PetCoverage> cov;
            for (std::size_t s = 0; s < sizes.size(); ++s)
                cov.push_back(_reference[b * sizes.size() + s].coverage);
            report.check(checkCoverageMonotone(_names[b], cov));
        }
    }

    Span pass(Report &report) override
    {
        harness::RunCache &cache = harness::RunCache::instance();
        cache.clear();
        std::vector<Point> points;
        Span span = timed([&] { points = sweep(report, true); });
        // Every section of every benchmark must come from disk.
        for (const auto &c : {cache.simCounters(),
                              cache.deadnessCounters(),
                              cache.avfCounters()}) {
            report.attempted += c.diskHits + c.misses;
            report.failed += c.misses;
            report.check(c.diskCorrupt == 0,
                         "disk_resweep: corrupt blobs quarantined");
            report.check(c.diskHits == _names.size(),
                         "disk_resweep: a section missed the disk tier");
        }
        compare(report, points, "warm");
        cache.clear();
        return span;
    }

    void tracedPass(Report &report, Layers &layers) override
    {
        harness::DiskCache &disk = harness::DiskCache::instance();
        double crc_s = 0, crc_bytes = 0;
        double &decode_s = layers["harness.decode_s"];
        double &read_s = layers["harness.disk_read_s"];
        // Each decode callback also checksums the payload on its own
        // clock; both are taken out of the read time.
        auto load = [&](const char *section, const std::string &key,
                        auto decode) {
            double inner = 0;
            double start = wallNow();
            ++report.attempted;
            harness::DiskCache::LoadResult res = disk.load(
                section, key, [&](const void *data, std::size_t len) {
                    double t0 = wallNow();
                    volatile std::uint64_t sink = crc64(0, data, len);
                    (void)sink;
                    double t1 = wallNow();
                    bool ok = decode(data, len);
                    double t2 = wallNow();
                    crc_s += t1 - t0;
                    crc_bytes += static_cast<double>(len);
                    decode_s += t2 - t1;
                    inner += t2 - t0;
                    return ok;
                });
            read_s += wallNow() - start - inner;
            if (res.status != harness::DiskCache::LoadStatus::Ok) {
                ++report.failed;
                throw std::runtime_error(std::string("no disk hit in ") +
                                         section);
            }
            layers["harness.disk_bytes_read"] +=
                static_cast<double>(res.payloadBytes);
        };

        std::vector<Point> points;
        for (const std::string &name : _names) {
            auto program = addTime(layers["workloads.build_s"], [&] {
                return buildSeeded(name, insts, _seed);
            });
            try {
                harness::ExperimentConfig cfg = config(sizes[0]);
                std::string key = harness::RunCache::simKey(
                    *program, cfg, effectiveParams(cfg));
                harness::SimProducts sim;
                avf::DeadnessResult deadness;
                avf::AvfResult result;
                load("sim", key, [&](const void *d, std::size_t n) {
                    return harness::codec::decodeSimProducts(d, n, &sim);
                });
                load("deadness", harness::RunCache::deadnessKey(key),
                     [&](const void *d, std::size_t n) {
                         return harness::codec::decodeDeadness(d, n,
                                                               &deadness);
                     });
                load("avf", harness::RunCache::avfKey(key),
                     [&](const void *d, std::size_t n) {
                         return harness::codec::decodeAvf(d, n, &result);
                     });
                layers["avf.trace_mb"] +=
                    static_cast<double>(harness::approxBytes(sim)) / MiB;
                auto shared =
                    std::make_shared<const avf::AvfResult>(result);
                for (std::uint32_t size : sizes) {
                    Point p;
                    p.ipc = sim.ipc;
                    p.avf = shared;
                    p.coverage =
                        addTime(layers["core.pet_coverage_s"], [&] {
                            return core::petCoverage(deadness, size);
                        });
                    points.push_back(p);
                }
            } catch (const std::exception &e) {
                std::cerr << "serbench: " << name << ": " << e.what()
                          << "\n";
                report.check(false, name + ": traced disk lookup");
                return;
            }
        }
        compare(report, points, "traced");
        layers["sim.crc64_mb_s"] = crc_bytes / MiB / crc_s;
    }

  private:
    /** Half of fig3_pet_sweep's default, so that three cold fills fit
     * in a run. */
    static constexpr std::uint64_t insts = 100000;
    static inline const std::vector<std::uint32_t> sizes = {
        32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};

    struct Point
    {
        double ipc = 0.0;
        std::shared_ptr<const avf::AvfResult> avf;
        core::PetCoverage coverage;
    };

    harness::ExperimentConfig config(std::uint32_t size) const
    {
        harness::ExperimentConfig cfg;
        cfg.dynamicTarget = insts;
        cfg.warmupInsts = 0;
        cfg.petSize = size;
        cfg.pipeline.maxInsts = insts * 2;
        return cfg;
    }

    /**
     * The Figure-3 sweep through runProgram and the run cache. A pass
     * keeps every benchmark in the memory tier until it ends, as the
     * sweep binary does; the fill and the reference sweep ('hold'
     * false) drop each benchmark's entries once its points are made,
     * so that the passes set the process's peak resident set.
     */
    std::vector<Point> sweep(Report &report, bool hold)
    {
        std::vector<Point> points;
        for (const std::string &name : _names) {
            auto program = buildSeeded(name, insts, _seed);
            for (std::uint32_t size : sizes) {
                harness::RunArtifacts r =
                    harness::runProgram(program, config(size), name);
                points.push_back({r.ipc, r.avf,
                                  core::petCoverage(*r.deadness, size)});
            }
            if (!hold)
                harness::RunCache::instance().clear();
        }
        report.check(points.size() == _names.size() * sizes.size(),
                     "disk_resweep: missing sweep points");
        return points;
    }

    /** Encode the cold fill's products (read back from the disk tier)
     * again on the benchmark's clock, and size the blobs the fill
     * wrote. */
    void measureWrites(Layers &layers)
    {
        harness::RunCache &cache = harness::RunCache::instance();
        auto missing = []() -> harness::SimProducts {
            throw std::runtime_error("cold fill left no sim blob");
        };
        double &encode_s = layers["harness.encode_s"];
        encode_s = 0;
        for (const std::string &name : _names) {
            auto program = buildSeeded(name, insts, _seed);
            harness::ExperimentConfig cfg = config(sizes[0]);
            std::string key = harness::RunCache::simKey(
                *program, cfg, effectiveParams(cfg));
            auto sim = cache.getSim(key, missing);
            harness::RunArtifacts r =
                harness::runProgram(program, cfg, name);
            addTime(encode_s, [&] {
                harness::codec::encodeSimProducts(*sim);
                harness::codec::encodeDeadness(*r.deadness);
                harness::codec::encodeAvf(*r.avf);
            });
        }
        double bytes = 0;
        for (const auto &e :
             std::filesystem::recursive_directory_iterator(_workDir))
            if (e.is_regular_file() && e.path().extension() == ".blob")
                bytes += static_cast<double>(e.file_size());
        layers["harness.disk_bytes_written"] = bytes;
    }

    void compare(Report &report, const std::vector<Point> &got,
                 const std::string &how)
    {
        if (got.size() != _reference.size()) {
            report.check(false, "disk_resweep: " + how +
                                    " sweep has the wrong size");
            return;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
            std::string what =
                _names[i / sizes.size()] + "/pet" +
                std::to_string(sizes[i % sizes.size()]) + " " + how;
            report.check(got[i].ipc == _reference[i].ipc,
                         what + ": IPC differs from the disk-off sweep");
            if (i % sizes.size() == 0)
                report.check(checkAvfEqual(what, *got[i].avf,
                                           *_reference[i].avf));
            report.check(sameCoverage(got[i].coverage,
                                      _reference[i].coverage),
                         what + ": coverage differs from the disk-off "
                                "sweep");
        }
    }

    std::uint64_t _seed;
    std::string _workDir;
    bool _traced;
    std::vector<std::string> _names;
    std::vector<Point> _reference;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".serbench_work";
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = std::stoi(v) != 0;
        else if (a == "--work-dir")
            o.workDir = v;
        else
            throw std::runtime_error("unknown option " + a);
    }
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "table1_suite")
        return std::make_unique<Table1Suite>(o.seed);
    if (o.workload == "campaign_footprint")
        return std::make_unique<CampaignFootprint>(o.seed);
    if (o.workload == "disk_resweep")
        return std::make_unique<DiskResweep>(
            o.seed, o.workDir + "/disk_resweep", o.trace);
    throw std::runtime_error("unknown workload '" + o.workload + "'");
}

int
run(const Options &o)
{
    std::unique_ptr<Workload> w = makeWorkload(o);
    Report report;
    Layers setup_layers;
    // At least three setups, and more while they add up to less than
    // a second, so that a cheap setup's median is steady too.
    std::vector<double> setups;
    double setup_total = 0.0;
    while (setups.size() < 3 ||
           (setup_total < 1.0 && setups.size() < 20)) {
        setups.push_back(
            timed([&] { w->setup(report, setup_layers); }).wall);
        setup_total += setups.back();
    }
    std::cerr << "serbench: peak RSS after setup: " << peakRssMiB()
              << " MiB\n";
    w->prepare(report, setup_layers);
    std::cerr << "serbench: peak RSS after the checks' references: "
              << peakRssMiB() << " MiB\n";

    // Passes until --seconds of timed regions are used: start
    // another only if one more (at the last one's length) still fits.
    auto passes = [&](double used, const std::function<Span()> &one) {
        std::vector<Span> spans;
        for (;;) {
            spans.push_back(one());
            std::cerr << "serbench: pass " << spans.size() << ": "
                      << spans.back().wall << " s wall, "
                      << spans.back().cpu << " s CPU\n";
            used += spans.back().wall;
            if (used + spans.back().wall > o.seconds)
                return spans;
        }
    };

    std::vector<std::tuple<std::string, double, std::string>> metrics;
    if (!o.trace) {
        // The process's high-water mark up to the end of the first
        // pass, so it also covers the setups and prepare(). Later
        // passes repeat the first one's allocations, so their count
        // (which follows the host's speed) must not move the figure.
        double peak_rss = 0.0;
        std::vector<Span> spans = passes(0.0, [&] {
            Span s = w->pass(report);
            if (peak_rss == 0.0)
                peak_rss = peakRssMiB();
            return s;
        });
        std::vector<double> walls, cpus;
        for (const Span &s : spans) {
            walls.push_back(s.wall);
            cpus.push_back(s.cpu);
        }
        metrics = {{"wall_s", median(walls), "s"},
                   {"setup_s", median(setups), "s"},
                   {"cpu_s", median(cpus), "s"},
                   {"peak_rss_mb", peak_rss, "MiB"}};
    } else {
        double untraced = w->pass(report).wall;
        std::vector<Layers> per_pass;
        std::vector<Span> spans = passes(untraced, [&] {
            Layers layers = setup_layers;
            Span s = timed([&] { w->tracedPass(report, layers); });
            per_pass.push_back(layers);
            return s;
        });
        std::vector<double> walls;
        for (const Span &s : spans)
            walls.push_back(s.wall);
        for (const auto &[name, unit] : layerMetrics()) {
            std::vector<double> values;
            for (const Layers &l : per_pass) {
                auto it = l.find(name);
                values.push_back(it == l.end() ? 0.0 : it->second);
            }
            double v = name == "trace.overhead_s"
                           ? median(walls) - untraced
                           : median(values);
            metrics.push_back({name, v, unit});
        }
    }
    printResult(report, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "serbench: " << e.what() << "\n";
        return 2;
    }
}
