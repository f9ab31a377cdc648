#include "transform/plan_ir.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <sstream>

#include "lang/ast.h"
#include "support/json.h"

namespace fsopt {

const char* transform_name(TransformKind k) {
  switch (k) {
    case TransformKind::kNone: return "none";
    case TransformKind::kGroupTranspose: return "group&transpose";
    case TransformKind::kIndirection: return "indirection";
    case TransformKind::kPadAlign: return "pad&align";
    case TransformKind::kLockPad: return "lock-pad";
    case TransformKind::kFieldReorder: return "field-reorder";
    case TransformKind::kHotColdSplit: return "hot-cold-split";
    case TransformKind::kIntraPad: return "intra-pad";
  }
  return "?";
}

const char* reason_code_name(ReasonCode c) {
  switch (c) {
    case ReasonCode::kNone: return "none";
    case ReasonCode::kLockAlwaysPadded: return "lock-always-padded";
    case ReasonCode::kPerProcessWrites: return "per-process-writes";
    case ReasonCode::kSharedNonLocal: return "shared-non-local";
    case ReasonCode::kStructConsensus: return "struct-consensus";
    case ReasonCode::kProfileFalseSharing: return "profile-false-sharing";
    case ReasonCode::kConflictGraph: return "conflict-graph";
  }
  return "?";
}

std::string DecisionReason::render() const {
  switch (code) {
    case ReasonCode::kNone:
      return "";
    case ReasonCode::kLockAlwaysPadded:
      return "locks are always padded";
    case ReasonCode::kPerProcessWrites:
      return std::string("per-process writes, reads ") +
             pattern_name(read_pattern);
    case ReasonCode::kSharedNonLocal:
      return "shared reads and writes without processor or spatial "
             "locality";
    case ReasonCode::kStructConsensus:
      return "all fields per-process along dim " + std::to_string(dim);
    case ReasonCode::kProfileFalseSharing: {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "profile: %llu false-sharing misses (%.1f%% of "
                    "attributed)",
                    static_cast<unsigned long long>(fs_misses),
                    100.0 * fs_share);
      return buf;
    }
    case ReasonCode::kConflictGraph: {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "conflict graph: %llu intra-datum conflict misses "
                    "(%.1f%% of graph weight)",
                    static_cast<unsigned long long>(fs_misses),
                    100.0 * fs_share);
      return buf;
    }
  }
  return "";
}

const TransformDecision* TransformPlan::find(const DatumKey& k) const {
  for (const auto& d : decisions)
    if (d.datum == k) return &d;
  return nullptr;
}

const TransformDecision* TransformPlan::applying_to(int sym,
                                                    int field) const {
  if (field >= 0) {
    if (const TransformDecision* d = find({sym, field})) return d;
  }
  return find({sym, -1});
}

namespace {

/// One rendered decision line, shared by plan and diff rendering.  Must
/// stay byte-identical to the pre-IR free-form rendering: the compile
/// fingerprint (driver/pipeline.h) embeds these lines.
std::string decision_line(const TransformDecision& d,
                          const ProgramSummary& sum) {
  std::ostringstream os;
  os << sum.datum_name(d.datum) << ": " << transform_name(d.kind);
  if (d.kind == TransformKind::kGroupTranspose ||
      d.kind == TransformKind::kIndirection) {
    os << " (pid-dim " << d.pid_dim << ", "
       << (d.shape == PartitionShape::kBlocked ? "blocked" : "interleaved");
    if (d.shape == PartitionShape::kBlocked) os << " C=" << d.chunk;
    os << ")";
  } else if (d.kind == TransformKind::kIntraPad) {
    os << " (stride " << d.chunk << ")";
  } else if (d.kind == TransformKind::kFieldReorder ||
             d.kind == TransformKind::kHotColdSplit) {
    os << " (fields";
    for (int f : d.fields) os << " " << f;
    os << ")";
  }
  std::string reason = d.reason.render();
  if (!reason.empty()) os << "  -- " << reason;
  return os.str();
}

}  // namespace

std::string TransformPlan::render(const ProgramSummary& sum) const {
  std::ostringstream os;
  for (const auto& d : decisions) os << decision_line(d, sum) << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

/// "g" for symbol-level decisions, "g.f" for field-level ones — the same
/// names ProgramSummary::datum_name and the address map use.
std::string datum_spelling(const DatumKey& k, const Program& prog) {
  if (k.sym == kBarrierSym && k.field < 0) return kBarrierName;
  FSOPT_CHECK(k.sym >= 0 && static_cast<size_t>(k.sym) < prog.globals.size(),
              "plan decision names an unknown symbol id");
  const GlobalSym& g = *prog.globals[static_cast<size_t>(k.sym)];
  if (k.field < 0) return g.name;
  FSOPT_CHECK(g.elem.is_struct &&
                  static_cast<size_t>(k.field) < g.elem.strct->fields.size(),
              "plan decision names an unknown field of " + g.name);
  return g.name + "." +
         g.elem.strct->fields[static_cast<size_t>(k.field)].name;
}

DatumKey resolve_datum(const std::string& spelling, const Program& prog) {
  if (spelling == kBarrierName) return {kBarrierSym, -1};
  std::string sym_name = spelling;
  std::string field_name;
  if (size_t dot = spelling.find('.'); dot != std::string::npos) {
    sym_name = spelling.substr(0, dot);
    field_name = spelling.substr(dot + 1);
  }
  const GlobalSym* g = prog.find_global(sym_name);
  FSOPT_CHECK(g != nullptr, "plan names unknown global '" + sym_name + "'");
  if (field_name.empty()) return {g->id, -1};
  FSOPT_CHECK(g->elem.is_struct,
              "plan names field of non-struct global '" + sym_name + "'");
  int fi = g->elem.strct->field_index(field_name);
  FSOPT_CHECK(fi >= 0, "plan names unknown field '" + spelling + "'");
  return {g->id, fi};
}

template <typename T>
T parse_enum(const json::Value& v, const char* what,
             std::initializer_list<std::pair<const char*, T>> table) {
  FSOPT_CHECK(v.is_string(), std::string(what) + " must be a string");
  for (const auto& [name, value] : table)
    if (v.as_string() == name) return value;
  throw InternalError("unknown " + std::string(what) + " '" +
                      v.as_string() + "' in plan");
}

const json::Value& member(const json::Value& obj, const char* key,
                          const char* what) {
  const json::Value* v = obj.get(key);
  FSOPT_CHECK(v != nullptr,
              std::string(what) + " is missing member \"" + key + "\"");
  return *v;
}

i64 int_member(const json::Value& obj, const char* key, const char* what) {
  const json::Value& v = member(obj, key, what);
  FSOPT_CHECK(v.is_number(), std::string(what) + " member \"" + key +
                                 "\" must be a number");
  return v.as_i64();
}

}  // namespace

void plan_to_writer(json::Writer& w, const TransformPlan& plan,
                    const Program& prog) {
  w.begin_object();
  w.key("plan_version").value(1);
  w.key("planner").value(plan.planner);
  w.key("block_size").value(plan.block_size);
  w.key("decisions").begin_array();
  for (const TransformDecision& d : plan.decisions) {
    w.begin_object();
    w.key("datum").value(datum_spelling(d.datum, prog));
    w.key("kind").value(transform_name(d.kind));
    if (d.kind == TransformKind::kGroupTranspose ||
        d.kind == TransformKind::kIndirection) {
      w.key("pid_dim").value(d.pid_dim);
      w.key("shape").value(d.shape == PartitionShape::kBlocked
                               ? "blocked"
                               : "interleaved");
      w.key("chunk").value(d.chunk);
    } else if (d.kind == TransformKind::kIntraPad) {
      w.key("chunk").value(d.chunk);
    } else if (d.kind == TransformKind::kFieldReorder ||
               d.kind == TransformKind::kHotColdSplit) {
      w.key("fields").begin_array();
      for (int f : d.fields) w.value(f);
      w.end_array();
    }
    w.key("reason").begin_object();
    w.key("code").value(reason_code_name(d.reason.code));
    switch (d.reason.code) {
      case ReasonCode::kPerProcessWrites:
        w.key("read_pattern").value(pattern_name(d.reason.read_pattern));
        break;
      case ReasonCode::kStructConsensus:
        w.key("dim").value(d.reason.dim);
        break;
      case ReasonCode::kProfileFalseSharing:
      case ReasonCode::kConflictGraph:
        w.key("fs_misses").value(d.reason.fs_misses);
        w.key("fs_share").value(d.reason.fs_share);
        break;
      default:
        break;
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string plan_to_json(const TransformPlan& plan, const Program& prog) {
  std::string out;
  json::Writer w(&out, 2);
  plan_to_writer(w, plan, prog);
  return out;
}

TransformPlan plan_from_json(std::string_view json, const Program& prog) {
  std::optional<json::Value> doc = json::parse(json);
  FSOPT_CHECK(doc.has_value(), "plan file is not well-formed JSON");
  FSOPT_CHECK(doc->is_object(), "plan document must be a JSON object");
  FSOPT_CHECK(int_member(*doc, "plan_version", "plan") == 1,
              "unsupported plan_version (expected 1)");

  TransformPlan plan;
  const json::Value& planner = member(*doc, "planner", "plan");
  FSOPT_CHECK(planner.is_string(), "plan member \"planner\" must be a "
                                   "string");
  plan.planner = planner.as_string();
  plan.block_size = int_member(*doc, "block_size", "plan");

  const json::Value& decisions = member(*doc, "decisions", "plan");
  FSOPT_CHECK(decisions.is_array(),
              "plan member \"decisions\" must be an array");
  for (const json::Value& jd : decisions.items()) {
    FSOPT_CHECK(jd.is_object(), "each plan decision must be an object");
    TransformDecision d;
    const json::Value& datum = member(jd, "datum", "decision");
    FSOPT_CHECK(datum.is_string(),
                "decision member \"datum\" must be a string");
    d.datum = resolve_datum(datum.as_string(), prog);
    d.kind = parse_enum<TransformKind>(
        member(jd, "kind", "decision"), "transform kind",
        {{"none", TransformKind::kNone},
         {"group&transpose", TransformKind::kGroupTranspose},
         {"indirection", TransformKind::kIndirection},
         {"pad&align", TransformKind::kPadAlign},
         {"lock-pad", TransformKind::kLockPad},
         {"field-reorder", TransformKind::kFieldReorder},
         {"hot-cold-split", TransformKind::kHotColdSplit},
         {"intra-pad", TransformKind::kIntraPad}});
    if (d.kind == TransformKind::kGroupTranspose ||
        d.kind == TransformKind::kIndirection) {
      // Clamped, not truncated: an out-of-int value must stay out of
      // range for plan_parameter_errors to reject.
      d.pid_dim = static_cast<int>(std::clamp<i64>(
          int_member(jd, "pid_dim", "decision"), INT_MIN, INT_MAX));
      d.shape = parse_enum<PartitionShape>(
          member(jd, "shape", "decision"), "partition shape",
          {{"blocked", PartitionShape::kBlocked},
           {"interleaved", PartitionShape::kInterleaved}});
      d.chunk = int_member(jd, "chunk", "decision");
    } else if (d.kind == TransformKind::kIntraPad) {
      d.chunk = int_member(jd, "chunk", "decision");
    } else if (d.kind == TransformKind::kFieldReorder ||
               d.kind == TransformKind::kHotColdSplit) {
      const json::Value& jf = member(jd, "fields", "decision");
      FSOPT_CHECK(jf.is_array(),
                  "decision member \"fields\" must be an array");
      for (const json::Value& f : jf.items()) {
        FSOPT_CHECK(f.is_number(), "decision field indices must be numbers");
        d.fields.push_back(static_cast<int>(f.as_i64()));
      }
    }
    const json::Value& jr = member(jd, "reason", "decision");
    FSOPT_CHECK(jr.is_object(),
                "decision member \"reason\" must be an object");
    d.reason.code = parse_enum<ReasonCode>(
        member(jr, "code", "reason"), "reason code",
        {{"none", ReasonCode::kNone},
         {"lock-always-padded", ReasonCode::kLockAlwaysPadded},
         {"per-process-writes", ReasonCode::kPerProcessWrites},
         {"shared-non-local", ReasonCode::kSharedNonLocal},
         {"struct-consensus", ReasonCode::kStructConsensus},
         {"profile-false-sharing", ReasonCode::kProfileFalseSharing},
         {"conflict-graph", ReasonCode::kConflictGraph}});
    switch (d.reason.code) {
      case ReasonCode::kPerProcessWrites:
        d.reason.read_pattern = parse_enum<Pattern>(
            member(jr, "read_pattern", "reason"), "read pattern",
            {{"none", Pattern::kNone},
             {"per-process", Pattern::kPerProcess},
             {"shared+local", Pattern::kSharedLocal},
             {"shared", Pattern::kSharedNonLocal}});
        break;
      case ReasonCode::kStructConsensus:
        d.reason.dim = static_cast<int>(int_member(jr, "dim", "reason"));
        break;
      case ReasonCode::kProfileFalseSharing:
      case ReasonCode::kConflictGraph:
        d.reason.fs_misses =
            static_cast<u64>(int_member(jr, "fs_misses", "reason"));
        d.reason.fs_share =
            member(jr, "fs_share", "reason").as_number();
        break;
      default:
        break;
    }
    plan.decisions.push_back(std::move(d));
  }
  std::vector<std::string> errors = plan_parameter_errors(plan, prog);
  if (!errors.empty()) {
    std::string msg = "plan rejected:";
    for (const std::string& e : errors) msg += "\n  " + e;
    throw InternalError(msg);
  }
  return plan;
}

std::vector<std::string> plan_parameter_errors(const TransformPlan& plan,
                                               const Program& prog) {
  std::vector<std::string> errors;
  if (plan.block_size <= 0 || plan.block_size > kMaxPlanBlockBytes)
    errors.push_back("block_size " + std::to_string(plan.block_size) +
                     " is outside 1.." + std::to_string(kMaxPlanBlockBytes) +
                     " bytes");
  for (const TransformDecision& d : plan.decisions) {
    const bool barrier = d.datum.sym == kBarrierSym && d.datum.field < 0;
    const GlobalSym* g =
        d.datum.sym >= 0 && static_cast<size_t>(d.datum.sym) <
                                prog.globals.size()
            ? prog.globals[static_cast<size_t>(d.datum.sym)].get()
            : nullptr;
    const bool field_ok =
        d.datum.field < 0 ||
        (g != nullptr && g->elem.is_struct &&
         static_cast<size_t>(d.datum.field) < g->elem.strct->fields.size());
    if ((g == nullptr && !barrier) || !field_ok) {
      errors.push_back("decision names an unknown datum (symbol " +
                       std::to_string(d.datum.sym) + ", field " +
                       std::to_string(d.datum.field) + ")");
      continue;
    }
    const std::string what = std::string(transform_name(d.kind)) +
                             " on '" + datum_spelling(d.datum, prog) + "'";
    // Extent of the partitioned dimension; 0 when pid_dim names none.
    i64 pid_extent = 0;
    if (d.kind == TransformKind::kGroupTranspose ||
        d.kind == TransformKind::kIndirection) {
      // The datum's dimensions: the symbol's, plus the field-array
      // dimension of an array field.
      std::vector<i64> dims;
      if (g != nullptr) {
        dims = g->dims;
        if (d.datum.field >= 0) {
          const i64 len =
              g->elem.strct->fields[static_cast<size_t>(d.datum.field)]
                  .array_len;
          if (len > 0) dims.push_back(len);
        }
      }
      const i64 rank = static_cast<i64>(dims.size());
      if (d.pid_dim < 0 || d.pid_dim >= rank)
        errors.push_back(what + ": pid_dim " + std::to_string(d.pid_dim) +
                         " is outside the datum's " + std::to_string(rank) +
                         " dimension(s)");
      else
        pid_extent = dims[static_cast<size_t>(d.pid_dim)];
    }
    const bool blocked_gt = d.kind == TransformKind::kGroupTranspose &&
                            d.shape == PartitionShape::kBlocked;
    if (!blocked_gt && d.kind != TransformKind::kIntraPad) continue;
    if (d.chunk <= 0)
      errors.push_back(what + ": chunk " + std::to_string(d.chunk) +
                       " must be positive");
    else if (blocked_gt && pid_extent > 0 && d.chunk > pid_extent)
      errors.push_back(what + ": chunk " + std::to_string(d.chunk) +
                       " exceeds the extent " + std::to_string(pid_extent) +
                       " of dimension " + std::to_string(d.pid_dim));
    else if (!blocked_gt && d.chunk > kMaxPlanBlockBytes)
      errors.push_back(what + ": chunk " + std::to_string(d.chunk) +
                       " exceeds the largest block size " +
                       std::to_string(kMaxPlanBlockBytes));
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

size_t PlanDiff::added() const {
  size_t n = 0;
  for (const auto& e : entries)
    if (e.change == PlanChange::kAdded) ++n;
  return n;
}

size_t PlanDiff::removed() const {
  size_t n = 0;
  for (const auto& e : entries)
    if (e.change == PlanChange::kRemoved) ++n;
  return n;
}

size_t PlanDiff::changed() const {
  size_t n = 0;
  for (const auto& e : entries)
    if (e.change == PlanChange::kChanged) ++n;
  return n;
}

std::string PlanDiff::render(const ProgramSummary& sum) const {
  if (entries.empty()) return "(no plan changes)\n";
  std::ostringstream os;
  for (const PlanDelta& e : entries) {
    switch (e.change) {
      case PlanChange::kAdded:
        os << "+ " << decision_line(e.after, sum) << "\n";
        break;
      case PlanChange::kRemoved:
        os << "- " << decision_line(e.before, sum) << "\n";
        break;
      case PlanChange::kChanged:
        os << "~ " << decision_line(e.before, sum) << "\n";
        os << "  -> " << decision_line(e.after, sum) << "\n";
        break;
    }
  }
  return os.str();
}

PlanDiff plan_diff(const TransformPlan& before, const TransformPlan& after) {
  PlanDiff diff;
  for (const TransformDecision& b : before.decisions) {
    const TransformDecision* a = after.find(b.datum);
    if (a == nullptr) {
      diff.entries.push_back({PlanChange::kRemoved, b.datum, b, {}});
    } else if (!(*a == b)) {
      diff.entries.push_back({PlanChange::kChanged, b.datum, b, *a});
    }
  }
  for (const TransformDecision& a : after.decisions) {
    if (before.find(a.datum) == nullptr)
      diff.entries.push_back({PlanChange::kAdded, a.datum, {}, a});
  }
  return diff;
}

}  // namespace fsopt
