// pacor -- command-line front end of the PACOR control-layer router.
//
//   pacor generate <design|params...> <out.chip>   synthesize an instance
//   pacor route <in.chip> <out.sol> [--variant=pacor|wosel|detour-first]
//   pacor diff <a.chip> <b.chip> [out.delta]       edit script A -> B
//   pacor serve [--batch=<manifest>]               long-lived request loop
//               [--max-inflight=N]                 requests in flight (2)
//   pacor serve --listen=<host:port>               TCP front end (framed)
//   pacor check <in.chip> <in.sol>                 independent DRC verify
//   pacor svg <in.chip> <in.sol> <out.svg>         render a routed chip
//   pacor table1                                   print Table 1
//   pacor table2                                   print Table 2 (slow)
//
// Exit code 0 on success / clean DRC, 1 on routing failure or violations,
// 2 on usage errors.

#include <array>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "chip/delta.hpp"
#include "chip/generator.hpp"
#include "chip/io.hpp"
#include "chip/stats.hpp"
#include "chip/synth_spec.hpp"
#include "pacor/drc.hpp"
#include "pacor/eco.hpp"
#include "pacor/pipeline.hpp"
#include "pacor/report.hpp"
#include "pacor/solution_io.hpp"
#include "serve/net.hpp"
#include "serve/serve.hpp"
#include "trace/trace.hpp"
#include "util/whole_number.hpp"
#include "verify/oracle.hpp"
#include "viz/svg.hpp"

namespace {

using namespace pacor;

int usage() {
  std::cerr <<
      "usage:\n"
      "  pacor generate <Chip1|Chip2|S1..S5> <out.chip>   (alias: gen)\n"
      "  pacor gen --fpva=NxM[,key=val...] <out.chip>\n"
      "              N x M fully programmable valve array; keys: pitch,\n"
      "              margin, block=RxC (cluster block), lm (% matched),\n"
      "              obs (per-mille obstacle density), pins (extra), seq,\n"
      "              delta, seed. `fpva:NxM:key=val` works too, including\n"
      "              as a design token on serve manifest lines\n"
      "  pacor synth <in.synth> <out.chip>\n"
      "  pacor info <in.chip>\n"
      "  pacor route <in.chip> <out.sol> [--variant=pacor|wosel|detour-first]\n"
      "              [--trace=out.json]   (Chrome trace_event timeline of the run)\n"
      "              [--trace-level=stage|cluster|search]   (default cluster)\n"
      "              [--metrics=out.json]   (every pipeline counter of the run)\n"
      "              [--eco=DELTA]   (ECO mode: route <in.chip>, apply the edit\n"
      "               script DELTA, then incrementally re-route only the\n"
      "               affected clusters; <out.sol> holds the edited chip's\n"
      "               solution)\n"
      "              [--eco-from=PREV.sol]   (with --eco: reuse a previous\n"
      "               solution of <in.chip> instead of routing it first)\n"
      "  pacor diff <a.chip> <b.chip> [out.delta]\n"
      "              minimal edit script turning A into B (stdout when no\n"
      "              output file is given); feed it back via route --eco or\n"
      "              the serve eco verb\n"
      "  pacor serve [--batch=FILE] [--max-inflight=N]\n"
      "              [--deadline-ms=D] [--max-designs=N]\n"
      "              long-lived request loop: routes one request per manifest\n"
      "              line (from FILE, or stdin when --batch is omitted or '-'),\n"
      "              reusing per-design contexts across requests; each\n"
      "              request runs on one thread, up to --max-inflight\n"
      "              (default 2) at once; answers print in request order.\n"
      "              Line: <design|file.chip>\n"
      "              [sol=P] [metrics=P] [trace=P] [trace-level=L] [variant=V]\n"
      "              [deadline_ms=D], `eco <design> delta=FILE\n"
      "              [options]` to advance a cached design through an edit\n"
      "              script, or `gen <design>` to pre-warm a design context\n"
      "  pacor serve --listen=HOST:PORT [--max-inflight=N]\n"
      "              [--max-queue=N] [--deadline-ms=D] [--max-designs=N]\n"
      "              TCP front end speaking the same request lines, length-\n"
      "              framed (4-byte big-endian length + line). Per-design FIFO\n"
      "              queues pin repeat traffic to warm contexts; past the\n"
      "              --max-queue high-water mark (0 = unbounded) requests get\n"
      "              `busy` responses; SIGTERM drains gracefully.\n"
      "              --deadline-ms sets a default per-request deadline (0 =\n"
      "              none; requests may override via deadline_ms=); routing\n"
      "              stops at the deadline and the request answers\n"
      "              `err <design> field=deadline ...` with no effect; `ok`\n"
      "              means it committed, even if it finished late.\n"
      "              --max-designs bounds the warm-context LRU cache (0 =\n"
      "              unlimited; in-flight designs are never evicted)\n"
      "  pacor check <in.chip> <in.sol>\n"
      "  pacor verify <in.chip> <in.sol>   (independent oracle + DRC cross-check)\n"
      "  pacor svg <in.chip> <in.sol> <out.svg>\n"
      "  pacor table1 [--effort]   (--effort also routes and prints search effort)\n"
      "  pacor table2\n";
  return 2;
}

std::optional<chip::GeneratorParams> findDesign(const std::string& name) {
  for (const auto& params : chip::table1Designs())
    if (params.name == name) return params;
  return std::nullopt;
}

int cmdGenerate(int argc, char** argv) {
  if (argc != 2) return usage();
  const std::string what = argv[0];
  chip::Chip c;
  if (what.rfind("--fpva=", 0) == 0 || chip::isFpvaSpec(what)) {
    const std::string spec =
        what.rfind("--fpva=", 0) == 0 ? what.substr(7) : what;
    c = chip::generateFpvaChip(chip::parseFpvaSpec(spec));
  } else if (const auto params = findDesign(what)) {
    c = chip::generateChip(*params);
  } else {
    std::cerr << "unknown design '" << what
              << "' (want Chip1|Chip2|S1..S5, --fpva=NxM[...], or fpva:NxM[...])\n";
    return 2;
  }
  chip::writeChipFile(argv[1], c);
  std::cout << "wrote " << argv[1] << " (" << c.routingGrid.width() << "x"
            << c.routingGrid.height() << " grid, " << c.valves.size()
            << " valves, " << c.pins.size() << " pins, " << c.obstacles.size()
            << " obstacle cells)\n";
  return 0;
}

int cmdSynth(int argc, char** argv) {
  if (argc != 2) return usage();
  const chip::SynthSpec spec = chip::readSynthSpecFile(argv[0]);
  const chip::Chip c = chip::buildChip(spec);
  chip::writeChipFile(argv[1], c);
  std::cout << "synthesized " << argv[1] << " from spec '" << spec.name << "' ("
            << c.valves.size() << " valves, " << c.obstacles.size()
            << " obstacle cells from the flow layer)\n";
  return 0;
}

int cmdInfo(int argc, char** argv) {
  if (argc != 1) return usage();
  const chip::Chip c = chip::readChipFile(argv[0]);
  std::cout << chip::computeStats(c);
  return 0;
}

int cmdRoute(int argc, char** argv) {
  if (argc < 2 || argc > 8) return usage();
  core::PacorConfig cfg = core::pacorDefaultConfig();
  std::string tracePath;
  std::string metricsPath;
  std::string ecoDeltaPath;
  std::string ecoFromPath;
  trace::Level traceLevel = trace::Level::kCluster;
  for (int i = 2; i < argc; ++i) {
    const std::string v = argv[i];
    if (v.rfind("--variant=", 0) == 0) {
      const auto variant = serve::parseVariant(v.substr(10));
      if (!variant) return usage();
      cfg = serve::configFor(*variant);
    } else if (v.rfind("--trace=", 0) == 0) {
      tracePath = v.substr(8);
      if (tracePath.empty()) return usage();
    } else if (v.rfind("--trace-level=", 0) == 0) {
      const auto level = trace::parseLevel(v.substr(14));
      if (!level) return usage();
      traceLevel = *level;
    } else if (v.rfind("--metrics=", 0) == 0) {
      metricsPath = v.substr(10);
      if (metricsPath.empty()) return usage();
    } else if (v.rfind("--eco=", 0) == 0) {
      ecoDeltaPath = v.substr(6);
      if (ecoDeltaPath.empty()) return usage();
    } else if (v.rfind("--eco-from=", 0) == 0) {
      ecoFromPath = v.substr(11);
      if (ecoFromPath.empty()) return usage();
    } else {
      return usage();
    }
  }
  if (!ecoFromPath.empty() && ecoDeltaPath.empty()) return usage();
  const chip::Chip c = chip::readChipFile(argv[0]);
  if (!tracePath.empty()) trace::beginSession(traceLevel);
  core::PacorResult result;
  if (ecoDeltaPath.empty()) {
    result = core::routeChip(c, cfg);
  } else {
    const chip::ChipDelta delta = chip::readDeltaFile(ecoDeltaPath);
    const core::PacorResult prev = ecoFromPath.empty()
                                       ? core::routeChip(c, cfg)
                                       : core::readSolutionFile(ecoFromPath);
    core::EcoInfo info;
    result = core::rerouteChip(c, prev, delta, cfg, {}, &info);
    const char* mode = info.mode == core::EcoInfo::Mode::kIdentity ? "identity"
                       : info.mode == core::EcoInfo::Mode::kIncremental
                           ? "incremental"
                           : "full";
    std::cout << "eco: mode " << mode << ", " << info.dirtyClusters
              << " dirty / " << info.frozenClusters << " reused cluster(s)";
    if (info.fellBack) std::cout << " (fell back: " << info.fullReason << ")";
    else if (!info.fullReason.empty()) std::cout << " (" << info.fullReason << ")";
    std::cout << '\n';
  }
  if (!tracePath.empty()) {
    const auto events = trace::endSession();
    if (!trace::writeChromeTrace(tracePath, events)) {
      std::cerr << "error: cannot write trace file " << tracePath << '\n';
      return 1;
    }
    std::cout << "wrote " << tracePath << " (" << events.size() << " spans)\n";
  }
  if (!metricsPath.empty()) {
    std::ofstream out(metricsPath);
    out << core::metricsFileText(result);
    if (!out) {
      std::cerr << "error: cannot write metrics file " << metricsPath << '\n';
      return 1;
    }
    std::cout << "wrote " << metricsPath << '\n';
  }
  core::writeSolutionFile(argv[1], result);
  std::cout << core::describeResult(result);
  std::cout << "wrote " << argv[1] << '\n';
  return result.complete ? 0 : 1;
}

int cmdDiff(int argc, char** argv) {
  if (argc < 2 || argc > 3) return usage();
  const chip::Chip a = chip::readChipFile(argv[0]);
  const chip::Chip b = chip::readChipFile(argv[1]);
  const chip::ChipDelta delta = chip::diff(a, b);
  if (argc == 3) {
    chip::writeDeltaFile(argv[2], delta);
    std::cout << "wrote " << argv[2] << " (" << delta.ops.size() << " op(s))\n";
  } else {
    std::cout << chip::deltaToString(delta);
  }
  return 0;
}

int cmdServe(int argc, char** argv) {
  // One set of admission settings for both front ends. A flag the chosen
  // mode would ignore is a usage error: batch mode never sheds load, so
  // --max-queue needs --listen, and --batch and --listen exclude each other.
  // So is a malformed number, before any thread starts.
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  serve::net::NetOptions netOpt;
  std::optional<std::string> batchPath;
  std::string listen;
  bool maxQueueSet = false;
  for (int i = 0; i < argc; ++i) {
    const std::string v = argv[i];
    if (v.rfind("--batch=", 0) == 0) {
      batchPath = v.substr(8);
      if (batchPath->empty()) return usage();
    } else if (v.rfind("--listen=", 0) == 0) {
      listen = v.substr(9);
      if (listen.empty()) return usage();
    } else if (v.rfind("--max-inflight=", 0) == 0) {
      const auto n = util::wholeNumber<long long>(v.substr(15), 1, kIntMax);
      if (!n) return usage();
      netOpt.admission.maxInflight = static_cast<int>(*n);
    } else if (v.rfind("--max-queue=", 0) == 0) {
      const auto n = util::wholeNumber<long long>(v.substr(12), 0, kIntMax);
      if (!n) return usage();
      netOpt.admission.maxQueue = static_cast<std::size_t>(*n);
      maxQueueSet = true;
    } else if (v.rfind("--deadline-ms=", 0) == 0) {
      const auto ms =
          util::wholeNumber<long long>(v.substr(14), 0, serve::kMaxDeadlineMs);
      if (!ms) return usage();
      netOpt.admission.defaultDeadlineMs = *ms;
    } else if (v.rfind("--max-designs=", 0) == 0) {
      const auto cap = util::wholeNumber<long long>(
          v.substr(14), 0, std::numeric_limits<long long>::max());
      if (!cap) return usage();
      netOpt.admission.maxDesigns = static_cast<std::size_t>(*cap);
    } else if (v == "--allow-fifo-designs") {
      // TEST-ONLY: lets liveness smoke tests park a request on a named
      // pipe; production loads reject non-regular files.
      netOpt.admission.allowFifoDesigns = true;
    } else {
      return usage();
    }
  }
  if (!listen.empty()) {
    if (batchPath) return usage();
    const std::size_t colon = listen.rfind(':');
    if (colon == std::string::npos) return usage();
    netOpt.host = listen.substr(0, colon);
    const auto port =
        util::wholeNumber<long long>(listen.substr(colon + 1), 0, 65535);
    if (netOpt.host.empty() || !port) return usage();
    netOpt.port = static_cast<std::uint16_t>(*port);
    return serve::net::serveForever(netOpt);
  }
  if (maxQueueSet) return usage();
  if (batchPath.value_or("-") == "-")
    return serve::runBatch(std::cin, std::cout, netOpt.admission) == 0 ? 0 : 1;
  std::ifstream manifest(*batchPath);
  if (!manifest) {
    std::cerr << "error: cannot read manifest " << *batchPath << '\n';
    return 2;
  }
  return serve::runBatch(manifest, std::cout, netOpt.admission) == 0 ? 0 : 1;
}

int cmdCheck(int argc, char** argv) {
  if (argc != 2) return usage();
  const chip::Chip c = chip::readChipFile(argv[0]);
  const core::PacorResult result = core::readSolutionFile(argv[1]);
  const core::DrcReport report = core::checkSolution(c, result);
  std::cout << report.str();
  return report.clean() ? 0 : 1;
}

int cmdVerify(int argc, char** argv) {
  if (argc != 2) return usage();
  const chip::Chip c = chip::readChipFile(argv[0]);
  const core::PacorResult result = core::readSolutionFile(argv[1]);
  const verify::OracleReport oracle = verify::verifySolution(c, result);
  const core::DrcReport drc = core::checkSolution(c, result);
  std::cout << oracle.str();
  std::cout << "drc: " << (drc.clean() ? "clean\n" : drc.str());
  if (oracle.clean() != drc.clean()) {
    std::cerr << "DISAGREEMENT: oracle says " << (oracle.clean() ? "clean" : "dirty")
              << ", drc says " << (drc.clean() ? "clean" : "dirty")
              << " -- one of the checkers has a bug; please report this "
                 "chip/solution pair\n";
    return 1;
  }
  return oracle.clean() ? 0 : 1;
}

int cmdSvg(int argc, char** argv) {
  if (argc != 3) return usage();
  const chip::Chip c = chip::readChipFile(argv[0]);
  const core::PacorResult result = core::readSolutionFile(argv[1]);
  std::vector<viz::DrawnNet> nets;
  for (std::size_t i = 0; i < result.clusters.size(); ++i) {
    viz::DrawnNet net;
    net.colorIndex = static_cast<int>(i);
    net.label = "cluster " + std::to_string(i);
    net.paths = result.clusters[i].treePaths;
    net.paths.push_back(result.clusters[i].escapePath);
    nets.push_back(std::move(net));
  }
  viz::writeSvgFile(argv[2], c, nets, 6);
  std::cout << "wrote " << argv[2] << '\n';
  return 0;
}

int cmdTable1(int argc, char** argv) {
  if (argc > 1) return usage();
  const bool effort = argc == 1 && std::string(argv[0]) == "--effort";
  if (argc == 1 && !effort) return usage();
  std::printf("%-8s %-10s %8s %8s %8s\n", "Design", "Size", "#Valves", "#CP", "#Obs");
  for (const auto& params : chip::table1Designs()) {
    const auto c = chip::generateChip(params);
    char size[24];
    std::snprintf(size, sizeof size, "%dx%d", c.routingGrid.width(),
                  c.routingGrid.height());
    std::printf("%-8s %-10s %8zu %8zu %8zu\n", c.name.c_str(), size, c.valves.size(),
                c.pins.size(), c.obstacles.size());
  }
  if (effort) {
    std::printf("\n");
    for (const auto& params : chip::table1Designs()) {
      const auto c = chip::generateChip(params);
      const auto result = routeChip(c, core::pacorDefaultConfig());
      std::printf("%s\n", core::describeEffort(result).c_str());
    }
  }
  return 0;
}

int cmdTable2() {
  core::printTable2Header(std::cout);
  bool allComplete = true;
  std::vector<std::array<core::PacorResult, 3>> rows;
  for (const auto& params : chip::table1Designs()) {
    const auto c = chip::generateChip(params);
    auto woSel = routeChip(c, core::withoutSelectionConfig());
    auto detourFirst = routeChip(c, core::detourFirstConfig());
    auto full = routeChip(c, core::pacorDefaultConfig());
    core::printTable2Row(std::cout, woSel, detourFirst, full);
    allComplete &= woSel.complete && detourFirst.complete && full.complete;
    rows.push_back({std::move(woSel), std::move(detourFirst), std::move(full)});
  }
  std::cout << "\nSearch effort:\n";
  core::printEffortHeader(std::cout);
  for (const auto& row : rows) core::printEffortRow(std::cout, row[0], row[1], row[2]);
  return allComplete ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate" || cmd == "gen") return cmdGenerate(argc - 2, argv + 2);
    if (cmd == "synth") return cmdSynth(argc - 2, argv + 2);
    if (cmd == "info") return cmdInfo(argc - 2, argv + 2);
    if (cmd == "route") return cmdRoute(argc - 2, argv + 2);
    if (cmd == "diff") return cmdDiff(argc - 2, argv + 2);
    if (cmd == "serve") return cmdServe(argc - 2, argv + 2);
    if (cmd == "check") return cmdCheck(argc - 2, argv + 2);
    if (cmd == "verify") return cmdVerify(argc - 2, argv + 2);
    if (cmd == "svg") return cmdSvg(argc - 2, argv + 2);
    if (cmd == "table1") return cmdTable1(argc - 2, argv + 2);
    if (cmd == "table2") return cmdTable2();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
