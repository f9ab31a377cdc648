// Mutation robustness of plan import (`fsoptc --plan-in`).
//
// mp3d's graph-planner plan is exported as JSON, then every number in
// the document is replaced, one at a time, by each of a fixed set of
// extreme values (0, ±1, 2^31-1, ±2^40).  The case list is fixed by the
// document, so every run checks the same cases.  Each mutated plan must
// either be rejected by plan_from_json with a diagnostic (InternalError
// with a message), or compile, record and replay like `fsoptc --plan-in`
// does, without any exception.  Under the ASan+UBSan CI job this also
// covers the heap-corruption class that unchecked plan numbers used to
// reach.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/pipeline.h"
#include "transform/plan_ir.h"
#include "workloads/workloads.h"

namespace fsopt {
namespace {

/// [begin, end) of every JSON number token in `doc` (string contents
/// skipped).
std::vector<std::pair<size_t, size_t>> number_spans(const std::string& doc) {
  std::vector<std::pair<size_t, size_t>> spans;
  bool in_string = false;
  for (size_t i = 0; i < doc.size(); ++i) {
    const char ch = doc[i];
    if (in_string) {
      if (ch == '\\')
        ++i;
      else if (ch == '"')
        in_string = false;
      continue;
    }
    if (ch == '"') {
      in_string = true;
    } else if (ch == '-' || std::isdigit(static_cast<unsigned char>(ch))) {
      size_t j = i + 1;
      while (j < doc.size() &&
             (std::isdigit(static_cast<unsigned char>(doc[j])) ||
              doc[j] == '.' || doc[j] == 'e' || doc[j] == 'E' ||
              doc[j] == '+' || doc[j] == '-'))
        ++j;
      spans.emplace_back(i, j);
      i = j - 1;
    }
  }
  return spans;
}

TEST(PlanInFuzz, MutatedGraphPlanIsRejectedOrCompilesAndRecords) {
  const workloads::Workload& w = workloads::get("mp3d");
  CompileOptions options;
  options.overrides = w.sim_overrides;
  options.overrides["NPROCS"] = w.fig3_procs;
  options.optimize = true;

  RepairLoopOptions rl;
  rl.planner_name = "graph";
  RepairResult rr = repair_loop(w.natural, options, rl);
  const std::string doc =
      plan_to_json(rr.final_compiled.transforms, *rr.final_compiled.prog);
  const auto spans = number_spans(doc);
  ASSERT_GE(spans.size(), 10u) << doc;

  const FrontHalf front = run_front(w.natural, options.overrides);
  const std::vector<std::string> values = {
      "0", "1", "-1", "2147483647", "1099511627776", "-1099511627776"};
  int cases = 0, rejected = 0;
  for (const auto& [begin, end] : spans) {
    for (const std::string& v : values) {
      if (doc.compare(begin, end - begin, v) == 0) continue;
      const std::string mutated =
          doc.substr(0, begin) + v + doc.substr(end);
      const std::string where = "number " + doc.substr(begin, end - begin) +
                                " at offset " + std::to_string(begin) +
                                " set to " + v;
      ++cases;
      TransformPlan plan;
      try {
        plan = plan_from_json(mutated, *front.prog);
      } catch (const InternalError& e) {
        EXPECT_NE(std::string(e.what()), "") << where;
        ++rejected;
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << where << ": plan_from_json threw a non-diagnostic "
                      << "exception: " << e.what();
        continue;
      }
      // Accepted: compile, then record and replay the default miss study
      // of `fsoptc --plan-in`.
      try {
        CompileOptions o = options;
        o.block_size = plan.block_size;
        o.plan = std::make_shared<const TransformPlan>(std::move(plan));
        Compiled c = run_back(front, o);
        TraceStudyResult st = run_trace_study(c, {16, 128});
        EXPECT_GT(st.at(128).refs, 0u) << where;
      } catch (const std::exception& e) {
        ADD_FAILURE() << where << ": accepted plan failed: " << e.what();
      }
    }
  }
  std::printf("%d mutated plans: %d rejected, %d compiled and recorded\n",
              cases, rejected, cases - rejected);
  // Every number gets at least five new values.
  EXPECT_GE(cases, 5 * static_cast<int>(spans.size()));
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, cases);
}

}  // namespace
}  // namespace fsopt
