// flowsched_cli: run any registered solver (or all of them) on an instance
// and emit a comparison table — the batch driver over the Solver facade.
//
// Usage:
//   flowsched_cli --list | --list-solvers
//   flowsched_cli --describe-solvers [--markdown]
//   flowsched_cli [--instance=<csv path | generator spec>]
//                 [--solver=all | name-or-glob[,name-or-glob...]]
//                 [--param key=value]... [--seed=N] [--max-rounds=N]
//                 [--time-limit=SECONDS] [--csv=out.csv]
//                 [--schedule-out=schedule.csv] [--diagnostics]
//
// Examples:
//   flowsched_cli --instance=poisson:ports=8,load=1.0,rounds=8 --solver=all
//   flowsched_cli --instance=trace.csv --solver=mrt.theorem3 \
//       --schedule-out=plan.csv
//   flowsched_cli --instance=fig4b --solver=online.maxweight,mrt.exact
//   flowsched_cli --instance=coflow:ports=8 --solver='coflow.*'
//
// Generator specs are documented in api/instance_source.h and
// docs/file-formats.md; per-solver parameter keys in docs/solvers.md —
// which is itself generated by `--describe-solvers --markdown`, the mode CI
// uses to keep that file honest (tools/check_docs.sh).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/instance_source.h"
#include "api/registry.h"
#include "model/trace_io.h"
#include "util/csv.h"
#include "util/table.h"

namespace flowsched {
namespace {

struct CliOptions {
  std::string instance = "poisson:ports=8,load=1.0,rounds=8,seed=1";
  std::vector<std::string> solvers;  // Empty = all.
  SolveOptions solve;
  std::string csv_out;
  std::string schedule_out;
  bool list = false;
  bool list_solvers = false;
  bool describe_solvers = false;
  bool markdown = false;
  bool diagnostics = false;
};

void PrintUsage(std::ostream& out) {
  out << "flowsched_cli: run registered solvers on an instance.\n"
         "  --list                 print solver names + descriptions and exit\n"
         "  --list-solvers         print registered solver names, one per\n"
         "                         line (script-friendly), and exit\n"
         "  --describe-solvers     print every solver's full contract (name,\n"
         "                         description, parameters, diagnostics) and\n"
         "                         exit; with --markdown, emit the exact\n"
         "                         content of docs/solvers.md\n"
         "  --instance=SOURCE      CSV trace path (instance or coflow trace)\n"
         "                         or generator spec (poisson|coflow|cdf|\n"
         "                         shuffle|incast|fig4a|fig4b[:k=v,...]); a\n"
         "                         fabric:shards=K[,partition=hash|block],\n"
         "                         <inner> wrapper shards any source for the\n"
         "                         fabric.* solvers\n"
         "  --solver=NAMES         'all' (default) or comma-separated names\n"
         "                         or '*' globs ('coflow.*')\n"
         "  --param KEY=VALUE      solver-specific parameter (repeatable)\n"
         "  --seed=N               RNG seed for randomized policies\n"
         "  --max-rounds=N         online simulation horizon\n"
         "  --time-limit=SECONDS   advisory wall-clock budget per solver\n"
         "  --csv=PATH             also write the comparison table as CSV\n"
         "  --schedule-out=PATH    write the schedule (single-solver runs)\n"
         "  --diagnostics          print each solver's diagnostic key/values\n";
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions& cli, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      std::exit(0);
    } else if (arg == "--list") {
      cli.list = true;
    } else if (arg == "--list-solvers") {
      cli.list_solvers = true;
    } else if (arg == "--describe-solvers") {
      cli.describe_solvers = true;
    } else if (arg == "--markdown") {
      cli.markdown = true;
    } else if (arg == "--diagnostics") {
      cli.diagnostics = true;
    } else if (ParseFlag(arg, "instance", &value)) {
      cli.instance = value;
    } else if (ParseFlag(arg, "solver", &value)) {
      if (value != "all") {
        std::string name;
        for (char c : value + ",") {
          if (c == ',') {
            if (!name.empty()) cli.solvers.push_back(name);
            name.clear();
          } else {
            name += c;
          }
        }
      }
    } else if (arg == "--param" && i + 1 < argc) {
      const std::string pair = argv[++i];
      const auto eq = pair.find('=');
      if (eq == std::string::npos) {
        error = "--param expects KEY=VALUE, got \"" + pair + "\"";
        return false;
      }
      cli.solve.params[pair.substr(0, eq)] = pair.substr(eq + 1);
    } else if (ParseFlag(arg, "param", &value)) {
      const auto eq = value.find('=');
      if (eq == std::string::npos) {
        error = "--param expects KEY=VALUE, got \"" + value + "\"";
        return false;
      }
      cli.solve.params[value.substr(0, eq)] = value.substr(eq + 1);
    } else if (ParseFlag(arg, "seed", &value)) {
      cli.solve.seed = std::stoull(value);
    } else if (ParseFlag(arg, "max-rounds", &value)) {
      cli.solve.max_rounds = std::stoi(value);
    } else if (ParseFlag(arg, "time-limit", &value)) {
      cli.solve.time_limit_seconds = std::stod(value);
    } else if (ParseFlag(arg, "csv", &value)) {
      cli.csv_out = value;
    } else if (ParseFlag(arg, "schedule-out", &value)) {
      cli.schedule_out = value;
    } else {
      error = "unknown argument \"" + arg + "\" (see --help)";
      return false;
    }
  }
  return true;
}

// `| ` and newlines would break the table cells; keys never contain them,
// docs should not either, but generated output must never be malformed.
std::string MarkdownCell(std::string text) {
  for (char& c : text) {
    if (c == '|' || c == '\n') c = ' ';
  }
  return text;
}

void DescribeSolversMarkdown(std::ostream& out, const SolverRegistry& registry) {
  out << "# Solver reference\n"
         "\n"
         "Every scheduler registered in the `SolverRegistry` "
         "(`src/api/registry.h`), with its\n"
         "parameter and diagnostics contract as declared by the solver "
         "itself\n"
         "(`Solver::ParamDocs` / `Solver::DiagnosticDocs`).\n"
         "\n"
         "> **Generated file — do not edit.** Regenerate with\n"
         "> `flowsched_cli --describe-solvers --markdown > docs/solvers.md`.\n"
         "> CI fails when this file is stale (`tools/check_docs.sh`).\n"
         "\n"
         "Shared knobs (`SolveOptions`): `time_limit_seconds`, `max_rounds`,"
         " `seed`,\n`verbosity`, and the string-keyed `params` documented "
         "per solver below. Unknown\nparameter keys fail the solve. See "
         "[architecture.md](architecture.md) for how a\nsolve flows through "
         "the facade.\n";
  for (const std::string& name : registry.Names()) {
    const auto solver = registry.Create(name);
    out << "\n## `" << name << "`\n\n"
        << solver->description() << "\n";
    const auto params = solver->ParamDocs();
    if (!params.empty()) {
      out << "\n**Parameters**\n\n| Key | Meaning |\n| --- | --- |\n";
      for (const SolverKeyDoc& p : params) {
        out << "| `" << MarkdownCell(p.key) << "` | " << MarkdownCell(p.doc)
            << " |\n";
      }
    }
    const auto diags = solver->DiagnosticDocs();
    if (!diags.empty()) {
      out << "\n**Diagnostics**\n\n| Key | Meaning |\n| --- | --- |\n";
      for (const SolverKeyDoc& d : diags) {
        out << "| `" << MarkdownCell(d.key) << "` | " << MarkdownCell(d.doc)
            << " |\n";
      }
    }
  }
}

void DescribeSolversText(std::ostream& out, const SolverRegistry& registry) {
  for (const std::string& name : registry.Names()) {
    const auto solver = registry.Create(name);
    out << name << "\n  " << solver->description() << "\n";
    const auto params = solver->ParamDocs();
    if (!params.empty()) {
      out << "  parameters:\n";
      for (const SolverKeyDoc& p : params) {
        out << "    " << p.key << ": " << p.doc << "\n";
      }
    }
    const auto diags = solver->DiagnosticDocs();
    if (!diags.empty()) {
      out << "  diagnostics:\n";
      for (const SolverKeyDoc& d : diags) {
        out << "    " << d.key << ": " << d.doc << "\n";
      }
    }
  }
}

std::string FormatAllowance(const CapacityAllowance& a) {
  std::string out = "x" + TextTable::Format(a.factor);
  if (a.additive != 0) out += "+" + std::to_string(a.additive);
  return out;
}

int Run(int argc, char** argv) {
  CliOptions cli;
  std::string error;
  if (!ParseArgs(argc, argv, cli, error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  const SolverRegistry& registry = SolverRegistry::Global();

  if (cli.markdown && !cli.describe_solvers) {
    std::cerr << "error: --markdown only applies to --describe-solvers\n";
    return 2;
  }
  if (cli.list_solvers) {
    for (const std::string& name : registry.Names()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (cli.describe_solvers) {
    if (cli.markdown) {
      DescribeSolversMarkdown(std::cout, registry);
    } else {
      DescribeSolversText(std::cout, registry);
    }
    return 0;
  }
  if (cli.list) {
    TextTable table({"solver", "description"});
    for (const std::string& name : registry.Names()) {
      table.Row(name, registry.Description(name));
    }
    table.Print(std::cout);
    return 0;
  }

  const auto instance = LoadInstance(cli.instance, &error);
  if (!instance.has_value()) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  std::cout << "instance: " << cli.instance << " (" << instance->num_flows()
            << " flows, " << instance->sw().num_inputs() << "x"
            << instance->sw().num_outputs() << " switch, dmax="
            << instance->MaxDemand() << ")\n\n";

  // Each --solver entry resolves like a campaign's solvers= list: a name
  // or a '*' glob. One that matches nothing stays as written, so it fails
  // below as an unknown solver.
  std::vector<std::string> names;
  for (const std::string& entry : cli.solvers) {
    std::vector<std::string> matches = registry.NamesMatching(entry);
    if (matches.empty()) matches.push_back(entry);
    names.insert(names.end(), matches.begin(), matches.end());
  }
  if (cli.solvers.empty()) names = registry.Names();

  TextTable table({"solver", "status", "total_resp", "avg_resp", "max_resp",
                   "makespan", "allowance", "lower_bound", "wall_ms"});
  std::ofstream csv_file;
  CsvWriter csv(csv_file);
  if (!cli.csv_out.empty()) {
    csv_file.open(cli.csv_out);
    csv.Row("solver", "status", "total_response", "avg_response",
            "max_response", "makespan", "allowance_factor",
            "allowance_additive", "lower_bound", "wall_seconds", "error");
  }

  int solved = 0;
  std::vector<SolveReport> reports;
  for (const std::string& name : names) {
    SolveReport report = registry.Solve(name, *instance, cli.solve);
    if (report.ok) {
      ++solved;
      table.Row(report.solver, "ok", report.metrics.total_response,
                report.metrics.avg_response, report.metrics.max_response,
                report.metrics.makespan, FormatAllowance(report.allowance),
                report.lower_bound.has_value()
                    ? TextTable::Format(*report.lower_bound)
                    : std::string("-"),
                report.wall_seconds * 1e3);
    } else {
      table.Row(report.solver, "FAIL: " + report.error, "-", "-", "-", "-",
                "-", "-", report.wall_seconds * 1e3);
    }
    if (!cli.csv_out.empty()) {
      csv.Row(report.solver, report.ok ? "ok" : "fail",
              report.metrics.total_response, report.metrics.avg_response,
              report.metrics.max_response, report.metrics.makespan,
              report.allowance.factor,
              static_cast<long long>(report.allowance.additive),
              report.lower_bound.value_or(0.0), report.wall_seconds,
              report.error);
    }
    reports.push_back(std::move(report));
  }
  table.Print(std::cout);
  if (!cli.csv_out.empty()) {
    std::cout << "\ncomparison written to " << cli.csv_out << "\n";
  }

  if (cli.diagnostics) {
    for (const SolveReport& report : reports) {
      if (report.diagnostics.empty()) continue;
      std::cout << "\n" << report.solver << " diagnostics:\n";
      for (const auto& [key, value] : report.diagnostics) {
        std::cout << "  " << key << " = " << TextTable::Format(value) << "\n";
      }
    }
  }

  if (!cli.schedule_out.empty()) {
    if (reports.size() != 1) {
      std::cerr << "\n--schedule-out requires exactly one --solver (got "
                << reports.size() << ")\n";
      return 2;
    }
    if (!reports[0].ok) {
      std::cerr << "\nno schedule to write: " << reports[0].error << "\n";
      return 1;
    }
    std::ofstream out(cli.schedule_out);
    WriteScheduleCsv(reports[0].schedule, out);
    std::cout << "\nschedule written to " << cli.schedule_out << "\n";
  }
  return solved > 0 ? 0 : 1;
}

}  // namespace
}  // namespace flowsched

int main(int argc, char** argv) { return flowsched::Run(argc, argv); }
