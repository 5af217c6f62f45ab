#include "lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/macros.h"

namespace nextmaint {
namespace lint {
namespace {

namespace fs = std::filesystem;

bool HasScannedExtension(const fs::path& path, const LintConfig& config) {
  const std::string ext = path.extension().string();
  for (const std::string& wanted : config.extensions) {
    if (ext == wanted) return true;
  }
  return false;
}

bool IsSkippedDirectory(const fs::path& path, const LintConfig& config) {
  const std::string name = path.filename().string();
  for (const std::string& skipped : config.skip_directories) {
    if (name == skipped) return true;
  }
  // Out-of-source build trees living in the repo root ("build", "build-asan",
  // "build-werror", ...) hold generated and vendored code.
  return name.rfind("build", 0) == 0;
}

Result<std::string> ReadFileToString(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read failed for " + path.string());
  }
  return std::move(buffer).str();
}

/// `path` relative to `root` with '/' separators, for stable finding labels
/// on any platform.
std::string RelativeLabel(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(path, root, ec);
  return (ec ? path : rel).generic_string();
}

}  // namespace

LintConfig LintConfig::ProjectDefault() {
  LintConfig config;
  config.policy.layers = {
      {"src/common", {"src/common"}},
      {"src/lint", {"src/common", "src/lint"}},
      {"src/data", {"src/common", "src/data"}},
      {"src/ml", {"src/common", "src/ml"}},
      {"src/telematics", {"src/common", "src/data", "src/telematics"}},
      // Storage sits below core: it persists opaque model payloads and
      // column blocks without parsing models, so core can depend on it
      // without a cycle.
      {"src/storage", {"src/common", "src/data", "src/storage"}},
      {"src/core",
       {"src/common", "src/data", "src/ml", "src/storage", "src/core"}},
      {"src/serve", {"src/common", "src/data", "src/ml", "src/storage",
                     "src/core", "src/serve"}},
      {"src/cli",
       {"src/common", "src/data", "src/ml", "src/telematics", "src/storage",
        "src/core", "src/serve", "src/cli"}},
  };
  // The seeded-RNG module wraps the only sanctioned randomness source.
  config.policy.banned_primitive_allowlist = {"src/common/rng.h",
                                              "src/common/rng.cc"};
  // Documented leaky singletons (static-destruction-order safety).
  config.policy.naked_new_allowlist = {"src/common/status.cc",
                                       "src/common/telemetry.cc"};
  // The binned training kernels must never fall back to row-oriented
  // storage: a row access here would silently reintroduce the access
  // pattern the columnar bins removed.
  config.policy.row_iteration_paths = {"src/ml/histogram.h",
                                       "src/ml/histogram.cc"};
  // Raw std::mutex may only appear under common/ (in practice: inside the
  // annotated wrapper); everything else declares nextmaint::Mutex so the
  // Clang thread-safety build can track it.
  config.policy.raw_mutex_prefixes = {"src/common/"};
  // The wrapper layer itself is the one sanctioned home of the raw
  // primitives it wraps.
  config.policy.thread_wrapper_allowlist = {
      "src/common/thread_annotations.h", "src/common/thread_annotations.cc"};
  // The serving stack and the thread pool must stay fully analyzable: no
  // NO_THREAD_SAFETY_ANALYSIS escape hatches there (docs/static-analysis.md).
  config.policy.no_analysis_banned_prefixes = {"src/serve/",
                                               "src/common/parallel"};
  return config;
}

std::vector<Finding> LintSource(
    const std::string& path, const std::string& content,
    const LintConfig& config,
    const std::set<std::string>& status_functions) {
  const ScrubbedSource src = Scrub(content);
  std::vector<Finding> findings;
  auto append = [&findings](std::vector<Finding> batch) {
    for (Finding& finding : batch) findings.push_back(std::move(finding));
  };
  append(CheckBannedPrimitives(path, src, config.policy));
  append(CheckUncheckedStatus(path, src, status_functions));
  append(CheckLayering(path, content, src, config.policy));
  append(CheckNakedNew(path, src, config.policy));
  append(CheckRowIteration(path, content, src, config.policy));
  append(CheckGuardedMutex(path, src, config.policy));
  append(CheckLockAnnotationDrift(path, src, config.policy));
  return findings;
}

Result<std::vector<Finding>> LintTree(const std::string& root,
                                      const std::vector<std::string>& paths,
                                      const LintConfig& config) {
  const fs::path root_path(root);
  // Pass 0: collect the files to scan, in deterministic order.
  std::vector<fs::path> files;
  for (const std::string& requested : paths) {
    const fs::path full = root_path / requested;
    std::error_code ec;
    if (fs::is_directory(full, ec)) {
      fs::recursive_directory_iterator it(full, ec), end;
      if (ec) {
        return Status::IOError("cannot walk " + full.string() + ": " +
                               ec.message());
      }
      for (; it != end; it.increment(ec)) {
        if (ec) {
          return Status::IOError("walk failed under " + full.string() + ": " +
                                 ec.message());
        }
        if (it->is_directory() && IsSkippedDirectory(it->path(), config)) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() &&
            HasScannedExtension(it->path(), config)) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(full, ec)) {
      files.push_back(full);
    } else {
      return Status::NotFound("no such file or directory: " + full.string());
    }
  }
  std::sort(files.begin(), files.end());

  // Pass 1: read everything and harvest Status-returning function names.
  std::vector<std::pair<std::string, std::string>> sources;  // label, content
  sources.reserve(files.size());
  std::set<std::string> status_functions = config.extra_status_functions;
  for (const fs::path& file : files) {
    NM_ASSIGN_OR_RETURN(std::string content, ReadFileToString(file));
    const std::string label = RelativeLabel(file, root_path);
    CollectStatusFunctions(Scrub(content), &status_functions);
    sources.emplace_back(label, std::move(content));
  }

  // Pass 2: apply the rules.
  std::vector<Finding> findings;
  for (const auto& [label, content] : sources) {
    std::vector<Finding> batch =
        LintSource(label, content, config, status_functions);
    for (Finding& finding : batch) findings.push_back(std::move(finding));
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  return findings;
}

}  // namespace lint
}  // namespace nextmaint
