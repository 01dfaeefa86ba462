// SweepSpec: the grid description for experiment campaigns — which solvers
// run on which instance families at which axis points, how many seeds and
// trials per point — plus its deterministic expansion into a SweepPlan of
// cells and tasks.
//
// Grid model
//   instances   generator-spec templates (api/instance_source.h) with
//               `{load}` `{ports}` `{rounds}` `{seed}` `{trial}`
//               placeholders,
//               e.g. "poisson:ports={ports},load={load},rounds=200,seed={seed}";
//               `{trial}` substitutes the 0-based trial index so
//               trace-driven templates can name one file per repetition
//   loads/ports/rounds/shards
//               axis value lists substituted into the placeholders; every
//               template must reference exactly the axes that are set (a
//               set axis no template reads, or a placeholder with no axis,
//               is a spec error — silent mismatches corrupt campaigns).
//               `{shards}` drives fabric campaigns: a template like
//               "fabric:shards={shards},partition=block,<inner>" sweeps the
//               pod count across fabric.* solvers (src/fabric/)
//   dists       `{dist}` axis for realistic-traffic templates: CDF names
//               substituted verbatim, e.g. "cdf:dist={dist},..." with
//               dists=websearch,fbhdp,alistorage compares the same grid
//               point across size distributions (src/traffic/)
//   solvers     registry names or '*' globs ("online.*")
//   seeds       instance seeds substituted into `{seed}`
//   trials      repeat count per (cell, seed) with distinct solver seeds
//               (distinguishes run-to-run variance of randomized policies
//               from instance-to-instance variance)
//   scenarios   fault-injection axis: '|'-separated scenario values, each
//               "none" (fault-free), a script path, or inline:<script>
//               ('|' because inline scripts use ';' as their line
//               separator). Unlike the template axes this one has no
//               placeholder — it forwards per cell as the solver's
//               `scenario` param, so every (solver, instance) point runs
//               once per listed fault pattern and the robustness
//               diagnostics (downtime, backlog surge, drain time,
//               response inflation) aggregate per cell
//
// A *cell* is one point of solver × template × load × ports × rounds — the
// unit the Aggregator reports statistics for. A *task* is one run: a cell
// plus a (seed, trial) pair. Task seeds derive from (base_seed, grid
// coordinates) via Rng::DeriveSeed, so a task's RNG stream is a pure
// function of its position in the grid — byte-identical results no matter
// how many threads execute the plan or in which order.
//
// Specs parse from key=value lines: one [grid] section of a campaign spec
// (campaign/campaign_spec.h). See docs/campaigns.md and
// docs/file-formats.md for the worked format reference.
//
// Failing fast: unknown spec keys, axis/placeholder mismatches, unknown
// solvers, and unknown keys or out-of-range values inside generator-spec
// templates are all expansion-time errors (the last via
// ValidateInstanceSpec), so a typo'd campaign dies before any task runs.
#ifndef FLOWSCHED_CAMPAIGN_SWEEP_SPEC_H_
#define FLOWSCHED_CAMPAIGN_SWEEP_SPEC_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.h"

namespace flowsched {

// The most values one axis may hold, and the most tasks one grid may
// expand to. Both are checked before anything is allocated, so an
// oversized range ("seeds=1..18446744073709551615") is a spec error.
inline constexpr std::uint64_t kMaxSweepSize = 1'000'000;

struct SweepSpec {
  std::string name = "sweep";            // Names the report files.
  std::vector<std::string> solvers;      // Registry names or '*' globs.
  std::vector<std::string> instances;    // Generator-spec templates.
  std::vector<double> loads;             // {load} axis (empty = axis unused).
  std::vector<long long> ports;          // {ports} axis.
  std::vector<long long> rounds;         // {rounds} axis.
  std::vector<long long> shards;         // {shards} axis (fabric pod count).
  std::vector<std::string> dists;        // {dist} axis (CDF names, verbatim).
  std::vector<std::uint64_t> seeds;      // {seed} axis; defaults to {1} when
                                         // a template uses {seed}.
  std::vector<std::string> scenarios;    // Scenario axis (empty = unused);
                                         // elements: "none", a path, or
                                         // inline:<script>.
  int trials = 1;
  std::uint64_t base_seed = 1;           // Root of all task seed derivation.
  long long max_rounds = 0;              // SolveOptions::max_rounds.
  std::map<std::string, std::string> params;  // Forwarded SolveOptions params.
};

// One aggregation unit: a solver at one grid point of the instance axes.
struct SweepCell {
  int index = 0;
  std::string solver;
  std::string instance_template;         // As written in the spec.
  std::optional<double> load;            // Axis values at this point (unset
  std::optional<long long> ports;        // when the axis is unused).
  std::optional<long long> rounds;
  std::optional<long long> shards;
  std::optional<std::string> dist;       // CDF name at this point.
  std::optional<std::string> scenario;   // "none" = explicit fault-free cell.
  // Template with axes substituted but `{seed}` / `{trial}` left in place —
  // the repetition-independent identity of the cell's instance family.
  std::string instance_family;
};

// One run: a cell at one (seed, trial) coordinate.
struct SweepTask {
  int index = 0;                 // Position in SweepPlan::tasks.
  int cell = 0;                  // Index into SweepPlan::cells.
  std::uint64_t instance_seed = 0;
  int trial = 0;
  std::string instance_spec;     // Fully substituted generator spec / path.
  int instance_slot = 0;         // Index into SweepPlan::unique_instances.
  std::uint64_t solver_seed = 0; // Rng::DeriveSeed chain over coordinates.
};

struct SweepPlan {
  std::vector<SweepCell> cells;
  std::vector<SweepTask> tasks;
  // Deduplicated instance specs: tasks sharing a spec share one loaded
  // Instance (read-only across threads), so a 50k-flow Poisson family is
  // generated once per seed, not once per solver × trial.
  std::vector<std::string> unique_instances;
};

// Parses an axis list: comma-separated elements, each a number or a range —
// "a:b:step" (inclusive, doubles) or "a..b" (inclusive, integers). Returns
// false and fills *error on malformed input: a non-finite double, a range
// running backwards or with step <= 0, or one that would take the axis
// past kMaxSweepSize values. Values keep list order.
bool ParseAxis(const std::string& text, std::vector<double>& out,
               std::string* error);
bool ParseAxis(const std::string& text, std::vector<long long>& out,
               std::string* error);
bool ParseAxis(const std::string& text, std::vector<std::uint64_t>& out,
               std::string* error);

// The lines of a key=value text that hold something: '#' comments and
// surrounding blanks cut, blank lines dropped, each with its 1-based line
// number. Sweep specs and campaign [grid] sections
// (campaign/campaign_spec.h) share this grammar.
std::vector<std::pair<int, std::string>> SpecLines(const std::string& text);

// Applies one "key=value" line to `spec`; an error names the key. Keys:
// name, solvers, instances (';'-separated — specs contain commas), loads,
// ports, rounds, shards, dists, seeds, scenarios ('|'-separated), trials,
// base_seed, max_rounds, param (repeatable "key=value"). A list or axis
// key replaces its whole list. Unknown keys are errors.
bool ApplySweepSpecLine(SweepSpec& spec, const std::string& line,
                        std::string* error);

// Parses a spec from key=value lines through ApplySweepSpecLine ('#'
// comments, blank lines ignored). Errors name the 1-based "line N".
bool ParseSweepSpec(const std::string& text, SweepSpec& spec,
                    std::string* error);

// Expands the grid: resolves solver globs against `registry`, substitutes
// axis values into templates, enumerates cells and tasks in a fixed
// deterministic order, and derives per-task solver seeds. Returns false and
// fills *error on invalid specs (empty/unknown solvers, axis/placeholder
// mismatches, trivial grids, more than kMaxSweepSize tasks, unknown keys
// inside generator-spec templates — the offending key is named).
bool ExpandSweep(const SweepSpec& spec, const SolverRegistry& registry,
                 SweepPlan& plan, std::string* error);

}  // namespace flowsched

#endif  // FLOWSCHED_CAMPAIGN_SWEEP_SPEC_H_
