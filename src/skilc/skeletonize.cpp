// Implementation of auto-skeletonization (skeletonize.h).
//
// The pass walks every first-order monomorphic function definition,
// probes each for-loop with the matcher library (matchers.h) and the
// recognition ladder documented in the header, and -- in rewrite mode
// -- replaces recognized loops with skeleton calls through synthesized
// customizing functions.  When the program does not already use a
// name, the canonical skeleton definitions (the paper's section 2.4
// bodies, verbatim) are parsed from embedded snippets and spliced in,
// so a rewritten program is self-contained: it instantiates, emits and
// interprets without any external library.
//
// Two invariants matter for testing:
//
//   * Advisory and rewrite mode make identical decisions and claim
//     identical names, so `can skeletonize ... into 'array_map(...)'`
//     notes from skil-lint name exactly the call the rewrite would
//     produce.  Every choice that could diverge (stage numbering,
//     skeleton-name collisions) goes through the shared claim table.
//
//   * Rewrites are bit-identity-preserving.  Loop bounds are pinned
//     to exactly the arrays the synthesized skeletons iterate (map:
//     the source; gen_mult: len(a) for i, len(b) for j and k), so a
//     rewrite can never change a trip count.  Fold recognition is
//     restricted to integer accumulators seeded with the operator's
//     identity (the canonical fold seeds from the first element, and
//     `0 + x == x` only holds bitwise for ints), and the rewritten
//     call is guarded on a non-empty partition so the empty case
//     keeps the seed, exactly as the zero-trip loop would; gen_mult
//     keeps the source's i/j/k iteration and accumulation order.

#include "skilc/skeletonize.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "skilc/analyze.h"
#include "skilc/cfg.h"
#include "skilc/dataflow.h"
#include "skilc/emit.h"
#include "skilc/matchers.h"
#include "skilc/parser.h"

namespace skil::skilc {

namespace m = matchers;

std::string SkeletonizeCounters::render_json() const {
  std::string json;
  support::JsonObject(json, true)
      .fields(*this)
      .num("recognized", recognized())
      .num("rejected", rejected())
      .close();
  return json;
}

namespace {

std::string spell(Span span) {
  return "line " + std::to_string(span.line) + ":" +
         std::to_string(span.column);
}

/// Minimal source rendering of an expression, for diagnostics
/// ("reads 'a[i - 1]' across iterations").
std::string spell_expr(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kIntLit:
      return std::to_string(e.int_value);
    case Expr::Kind::kFloatLit:
      return float_literal(e.float_value);
    case Expr::Kind::kName:
      return e.name;
    case Expr::Kind::kSection:
      return "(" + e.name + ")";
    case Expr::Kind::kBinary:
      return spell_expr(*e.lhs) + " " + e.name + " " + spell_expr(*e.rhs);
    case Expr::Kind::kUnary:
      return e.name + spell_expr(*e.lhs);
    case Expr::Kind::kAssign:
      return spell_expr(*e.lhs) + " = " + spell_expr(*e.rhs);
    case Expr::Kind::kIndex:
      return spell_expr(*e.lhs) + "[" + spell_expr(*e.rhs) + "]";
    case Expr::Kind::kCall: {
      std::string out = spell_expr(*e.callee) + "(";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += spell_expr(*e.args[i]);
      }
      return out + ")";
    }
  }
  return "";
}

bool expr_contains_index(const Expr& e) {
  if (e.kind == Expr::Kind::kIndex) return true;
  if (e.lhs && expr_contains_index(*e.lhs)) return true;
  if (e.rhs && expr_contains_index(*e.rhs)) return true;
  if (e.callee && expr_contains_index(*e.callee)) return true;
  for (const ExprPtr& arg : e.args)
    if (expr_contains_index(*arg)) return true;
  return false;
}

bool stmt_contains_index(const Stmt& s) {
  if (s.expr && expr_contains_index(*s.expr)) return true;
  if (s.init && expr_contains_index(*s.init)) return true;
  if (s.for_init && stmt_contains_index(*s.for_init)) return true;
  for (const StmtPtr& child : s.body)
    if (stmt_contains_index(*child)) return true;
  for (const StmtPtr& child : s.else_body)
    if (stmt_contains_index(*child)) return true;
  return false;
}

bool occurs_in_expr(const Expr& e, const std::string& name) {
  if (e.kind == Expr::Kind::kName && e.name == name) return true;
  if (e.lhs && occurs_in_expr(*e.lhs, name)) return true;
  if (e.rhs && occurs_in_expr(*e.rhs, name)) return true;
  if (e.callee && occurs_in_expr(*e.callee, name)) return true;
  for (const ExprPtr& arg : e.args)
    if (occurs_in_expr(*arg, name)) return true;
  return false;
}

int count_occurrences_expr(const Expr& e, const std::string& name) {
  int n = e.kind == Expr::Kind::kName && e.name == name ? 1 : 0;
  if (e.lhs) n += count_occurrences_expr(*e.lhs, name);
  if (e.rhs) n += count_occurrences_expr(*e.rhs, name);
  if (e.callee) n += count_occurrences_expr(*e.callee, name);
  for (const ExprPtr& arg : e.args) n += count_occurrences_expr(*arg, name);
  return n;
}

int count_occurrences_stmt(const Stmt& s, const std::string& name) {
  int n = s.kind == Stmt::Kind::kVarDecl && s.decl_name == name ? 1 : 0;
  if (s.expr) n += count_occurrences_expr(*s.expr, name);
  if (s.init) n += count_occurrences_expr(*s.init, name);
  if (s.for_init) n += count_occurrences_stmt(*s.for_init, name);
  for (const StmtPtr& child : s.body)
    n += count_occurrences_stmt(*child, name);
  for (const StmtPtr& child : s.else_body)
    n += count_occurrences_stmt(*child, name);
  return n;
}

int count_occurrences(const std::vector<StmtPtr>& body,
                      const std::string& name) {
  int n = 0;
  for (const StmtPtr& stmt : body) n += count_occurrences_stmt(*stmt, name);
  return n;
}

/// The single statement a loop body reduces to (unwrapping redundant
/// blocks), or null when the body has several statements.
const Stmt* single_stmt(const std::vector<StmtPtr>& body) {
  if (body.size() != 1) return nullptr;
  const Stmt* s = body.front().get();
  while (s->kind == Stmt::Kind::kBlock) {
    if (s->body.size() != 1) return nullptr;
    s = s->body.front().get();
  }
  return s;
}

void stamp_expr(Expr& e, Span span) {
  e.line = span.line;
  e.column = span.column;
  if (e.lhs) stamp_expr(*e.lhs, span);
  if (e.rhs) stamp_expr(*e.rhs, span);
  if (e.callee) stamp_expr(*e.callee, span);
  for (const ExprPtr& arg : e.args) stamp_expr(*arg, span);
}

/// How an index expression relates to the induction variable.
enum class IndexClass {
  kExact,     ///< exactly `i`
  kCarried,   ///< `i + c` / `i - c` / `c + i`: a cross-iteration shift
  kIndirect,  ///< anything else (a[p[i]], a[2*i], a[0])
};

IndexClass classify_index(const Expr& index, const std::string& var) {
  if (index.kind == Expr::Kind::kName && index.name == var)
    return IndexClass::kExact;
  if (index.kind == Expr::Kind::kBinary &&
      (index.name == "+" || index.name == "-")) {
    const bool lhs_var =
        index.lhs->kind == Expr::Kind::kName && index.lhs->name == var;
    const bool rhs_var =
        index.rhs->kind == Expr::Kind::kName && index.rhs->name == var;
    const bool lhs_lit = index.lhs->kind == Expr::Kind::kIntLit;
    const bool rhs_lit = index.rhs->kind == Expr::Kind::kIntLit;
    if ((lhs_var && rhs_lit) || (index.name == "+" && lhs_lit && rhs_var))
      return IndexClass::kCarried;
  }
  return IndexClass::kIndirect;
}

// --- backward liveness of one local after one loop -------------------------

struct Event {
  int local = 0;
  bool is_def = false;
};

void expr_events(const Expr& e, const std::map<std::string, int>& index,
                 std::vector<Event>& out) {
  switch (e.kind) {
    case Expr::Kind::kName: {
      const auto it = index.find(e.name);
      if (it != index.end()) out.push_back({it->second, false});
      break;
    }
    case Expr::Kind::kAssign: {
      expr_events(*e.rhs, index, out);
      if (e.lhs->kind == Expr::Kind::kName) {
        const auto it = index.find(e.lhs->name);
        if (it != index.end()) out.push_back({it->second, true});
      } else {
        // Store-through (a[i] = v): the base stays live, the index is
        // read -- both are uses, nothing is killed.
        expr_events(*e.lhs, index, out);
      }
      break;
    }
    case Expr::Kind::kIndex:
    case Expr::Kind::kBinary:
      expr_events(*e.lhs, index, out);
      expr_events(*e.rhs, index, out);
      break;
    case Expr::Kind::kUnary:
      expr_events(*e.lhs, index, out);
      break;
    case Expr::Kind::kCall:
      expr_events(*e.callee, index, out);
      for (const ExprPtr& arg : e.args) expr_events(*arg, index, out);
      break;
    default:
      break;  // literals, sections
  }
}

/// A function's CFG and backward-liveness solution, built once and
/// queried for every candidate loop in the function (a gen_mult nest
/// alone queries three times).  The CFG holds pointers into the
/// function body, so the cache must be invalidated whenever a rewrite
/// mutates it.
struct FnLiveness {
  Cfg cfg;
  DataflowResult live;
  bool valid = false;

  void invalidate() { valid = false; }

  void build(const Function& fn) {
    cfg = build_cfg(fn);
    const std::size_t n = cfg.num_locals();
    std::vector<BlockTransfer> transfer(cfg.blocks.size());
    for (const BasicBlock& block : cfg.blocks) {
      BitVec gen(n);
      BitVec kill(n);
      for (const CfgAction& action : block.actions) {
        std::vector<Event> events;
        switch (action.kind) {
          case CfgAction::Kind::kDecl:
            if (action.stmt->init != nullptr) {
              expr_events(*action.stmt->init, cfg.local_index, events);
              const auto it = cfg.local_index.find(action.stmt->decl_name);
              if (it != cfg.local_index.end())
                events.push_back({it->second, true});
            }
            break;
          case CfgAction::Kind::kEval:
          case CfgAction::Kind::kReturn:
            if (action.expr != nullptr)
              expr_events(*action.expr, cfg.local_index, events);
            break;
        }
        for (const Event& event : events) {
          if (event.is_def)
            kill.set(static_cast<std::size_t>(event.local));
          else if (!kill.test(static_cast<std::size_t>(event.local)))
            gen.set(static_cast<std::size_t>(event.local));
        }
      }
      transfer[block.id].gen = std::move(gen);
      transfer[block.id].kill = std::move(kill);
    }
    live = solve_dataflow(cfg, transfer, Direction::kBackward, Meet::kUnion,
                          BitVec(n));
    valid = true;
  }

  /// True when `var` may be read after `loop` exits.  Conservatively
  /// true when the loop's exit edge cannot be located.
  bool live_after_loop(const Function& fn, const Stmt& loop,
                       const std::string& var) {
    if (!valid) build(fn);
    const auto vit = cfg.local_index.find(var);
    if (vit == cfg.local_index.end()) return true;
    // The loop's condition block ends the iteration: its second
    // successor is the code after the loop.
    int cond_block = -1;
    for (const BasicBlock& block : cfg.blocks)
      for (const CfgAction& action : block.actions)
        if (action.kind == CfgAction::Kind::kEval && action.stmt == &loop &&
            action.expr == loop.expr.get())
          cond_block = block.id;
    if (cond_block < 0) return true;
    const std::vector<int>& succs = cfg.blocks[cond_block].succs;
    if (succs.size() < 2) return true;
    return live.in[succs[1]].test(vit->second);
  }
};

// --- canonical skeleton snippets -------------------------------------------

// The paper's section 2.4 bodies, spliced into programs that do not
// already define the skeletons.  Nested type arguments are written
// `array <array <E> >`-style only for symmetry with the examples; the
// lexer treats every '>' as its own token.

std::string map_def_text(const std::string& name) {
  return "void " + name +
         " ($t2 map_f ($t1, Index), array <$t1> a, array <$t2> b) {\n"
         "  int i;\n"
         "  for (i = part_lower(a); i < part_upper(a); i = i + 1)\n"
         "    b[i] = map_f(a[i], mk_index(i));\n"
         "}\n";
}

std::string fold_def_text(const std::string& name) {
  return "$t2 " + name +
         " ($t2 conv_f ($t1, Index), $t2 fold_f ($t2, $t2), array <$t1> a) "
         "{\n"
         "  $t2 acc = conv_f(a[part_lower(a)], mk_index(part_lower(a)));\n"
         "  int i;\n"
         "  for (i = part_lower(a) + 1; i < part_upper(a); i = i + 1)\n"
         "    acc = fold_f(acc, conv_f(a[i], mk_index(i)));\n"
         "  return acc;\n"
         "}\n";
}

std::string gen_mult_def_text(const std::string& name,
                              const std::string& elem) {
  return "void " + name + " (array <array <" + elem +
         "> > a, array <array <" + elem + "> > b, " + elem + " add_f (" +
         elem + ", " + elem + "), " + elem + " mult_f (" + elem + ", " +
         elem + "), array <array <" + elem + "> > c) {\n"
         "  int i;\n"
         "  int j;\n"
         "  int k;\n"
         "  for (i = 0; i < len(a); i = i + 1) {\n"
         "    for (j = 0; j < len(b); j = j + 1) {\n"
         "      for (k = 0; k < len(b); k = k + 1)\n"
         "        c[i][j] = add_f(c[i][j], mult_f(a[i][k], b[k][j]));\n"
         "    }\n"
         "  }\n"
         "}\n";
}

// --- the pass --------------------------------------------------------------

class Skeletonizer {
 public:
  Skeletonizer(Program& program, DiagnosticSink& sink, bool rewrite)
      : program_(program), sink_(sink), rewrite_(rewrite), oracle_(program) {}

  SkeletonizeCounters run() {
    for (std::size_t i = 0; i < program_.functions.size(); ++i) {
      Function& fn = program_.functions[i];
      if (fn.is_prototype || fn.is_hof() || fn.is_polymorphic()) continue;
      fn_ = &fn;
      liveness_.invalidate();
      process_stmts(fn.body);
    }
    for (Function& fn : synthesized_)
      program_.functions.push_back(std::move(fn));
    return counters_;
  }

 private:
  /// What the caller of try_loop should do next.
  enum class Action {
    kReplaced,   ///< stmts[idx] was replaced in place
    kNoRecurse,  ///< leave the loop alone, do not examine nested loops
    kRecurse,    ///< leave the loop alone, examine nested loops
  };

  /// Per-loop diagnostic context.  `relevant` gates rejection notes:
  /// loops that never touch an array element are silently counted, so
  /// ordinary counting loops do not drown the lint output.
  struct LoopDiag {
    Span span;
    std::string prefix;  ///< "loop over 'i'" / "loop nest over 'i', ..."
    bool relevant = false;
  };

  Action reject(const LoopDiag& d, int SkeletonizeCounters::*counter,
                std::string message, std::string hint = "",
                Action action = Action::kRecurse) {
    ++(counters_.*counter);
    if (d.relevant)
      sink_.report(Severity::kNote, "skeletonize", d.span,
                   d.prefix + " not skeletonized: " + std::move(message),
                   std::move(hint));
    return action;
  }

  void note_recognized(const LoopDiag& d, const std::string& call,
                       const std::string& why, const std::string& hint = "") {
    sink_.report(Severity::kNote, "skeletonize", d.span,
                 std::string(rewrite_ ? "skeletonized " : "can skeletonize ") +
                     d.prefix + " into '" + call + "': " + why,
                 hint);
  }

  void process_stmts(std::vector<StmtPtr>& stmts) {
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      Stmt& stmt = *stmts[i];
      if (stmt.kind == Stmt::Kind::kFor) {
        const Action action = try_loop(stmts, i);
        if (action == Action::kReplaced || action == Action::kNoRecurse)
          continue;
      }
      process_stmts(stmt.body);
      process_stmts(stmt.else_body);
    }
  }

  Action try_loop(std::vector<StmtPtr>& stmts, std::size_t idx) {
    Stmt& loop = *stmts[idx];
    ++counters_.loops_seen;
    const m::LoopHeader header = m::match_loop_header(loop);
    if (!header.canonical) {
      // Not a counted loop at all -- no note: the programmer was not
      // trying to write a skeleton body.
      ++counters_.rejected_header;
      return Action::kRecurse;
    }

    const Stmt* body = single_stmt(loop.body);
    if (body != nullptr && body->kind == Stmt::Kind::kFor) {
      const Stmt* inner = single_stmt(body->body);
      if (inner != nullptr && inner->kind == Stmt::Kind::kFor)
        return try_gen_mult(stmts, idx, header, *body, *inner);
      LoopDiag d{loop.span(), "loop over '" + header.var + "'",
                 stmt_contains_index(loop)};
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the body is a nested loop, not a single update "
                    "statement");
    }

    LoopDiag d{loop.span(), "loop over '" + header.var + "'",
               stmt_contains_index(loop)};
    if (header.stride != 1)
      return reject(d, &SkeletonizeCounters::rejected_stride,
                    "the loop advances '" + header.var + "' by " +
                        std::to_string(header.stride) + ", not 1",
                    "only unit-stride loops map onto the block-distributed "
                    "skeletons");
    if (body == nullptr || body->kind != Stmt::Kind::kExpr ||
        body->expr == nullptr || body->expr->kind != Expr::Kind::kAssign)
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the body is not a single update statement");
    const Expr& update = *body->expr;
    if (update.lhs->kind == Expr::Kind::kIndex)
      return try_map(stmts, idx, header, update, d);
    if (update.lhs->kind == Expr::Kind::kName)
      return try_fold(stmts, idx, header, update, d);
    return reject(d, &SkeletonizeCounters::rejected_shape,
                  "the update target is neither a variable nor an indexed "
                  "element");
  }

  // --- element-expression classification -----------------------------------

  struct ElemScan {
    ElemScan(std::string var, const std::string* acc)
        : var(std::move(var)), acc(acc) {}
    std::string var;
    const std::string* acc;  ///< fold accumulator (null for map)
    std::string source;      ///< the one array the expression reads
    TypePtr source_type;     ///< its element type
    std::vector<std::string> scalars;  ///< free scalars, first-use order
    std::vector<TypePtr> scalar_types;
    std::set<std::string> scalar_set;
  };

  bool scan_elem(const Expr& e, ElemScan& s, const LoopDiag& d) {
    switch (e.kind) {
      case Expr::Kind::kIntLit:
      case Expr::Kind::kFloatLit:
        return true;
      case Expr::Kind::kName: {
        if (e.name == s.var) {
          reject(d, &SkeletonizeCounters::rejected_induction,
                 "the element computation reads the induction variable '" +
                     s.var + "' at " + spell(e.span()));
          return false;
        }
        if (s.acc != nullptr && e.name == *s.acc) {
          reject(d, &SkeletonizeCounters::rejected_accumulator,
                 "reads the accumulator '" + *s.acc +
                     "' inside the element computation (" + spell(e.span()) +
                     ")");
          return false;
        }
        if (e.type != nullptr && (e.type->kind == Type::Kind::kInt ||
                                  e.type->kind == Type::Kind::kFloat)) {
          if (s.scalar_set.insert(e.name).second) {
            s.scalars.push_back(e.name);
            s.scalar_types.push_back(e.type);
          }
          return true;
        }
        if (e.type != nullptr && e.type->kind == Type::Kind::kFunction) {
          reject(d, &SkeletonizeCounters::rejected_shape,
                 "reads the function '" + e.name + "' as a value (" +
                     spell(e.span()) + ")");
          return false;
        }
        reject(d, &SkeletonizeCounters::rejected_shape,
               "reads the whole array '" + e.name + "' (" + spell(e.span()) +
                   "); only '" + e.name + "[" + s.var +
                   "]' element reads are recognized");
        return false;
      }
      case Expr::Kind::kIndex: {
        if (e.lhs->kind != Expr::Kind::kName) {
          reject(d, &SkeletonizeCounters::rejected_shape,
                 "indexes '" + spell_expr(*e.lhs) + "' (" + spell(e.span()) +
                     "), not a named array");
          return false;
        }
        switch (classify_index(*e.rhs, s.var)) {
          case IndexClass::kExact:
            break;
          case IndexClass::kCarried:
            reject(d, &SkeletonizeCounters::rejected_carried,
                   "reads '" + spell_expr(e) + "' across iterations (" +
                       spell(e.span()) + ")",
                   "cross-iteration dependences cannot run as a parallel "
                   "skeleton");
            return false;
          case IndexClass::kIndirect:
            reject(d, &SkeletonizeCounters::rejected_indirect,
                   "reads '" + spell_expr(e) +
                       "', whose index is not the induction variable '" +
                       s.var + "' (" + spell(e.span()) + ")");
            return false;
        }
        const std::string& base = e.lhs->name;
        if (e.type == nullptr || (e.type->kind != Type::Kind::kInt &&
                                  e.type->kind != Type::Kind::kFloat)) {
          reject(d, &SkeletonizeCounters::rejected_shape,
                 "the elements of '" + base + "' are not int or float");
          return false;
        }
        if (s.source.empty()) {
          s.source = base;
          s.source_type = e.type;
        } else if (s.source != base) {
          reject(d, &SkeletonizeCounters::rejected_shape,
                 "reads two arrays ('" + s.source + "' and '" + base +
                     "'); an element-wise update reads one source",
                 "zip-style bodies over two sources are not yet recognized");
          return false;
        }
        return true;
      }
      case Expr::Kind::kCall: {
        if (e.callee->kind != Expr::Kind::kName) {
          reject(d, &SkeletonizeCounters::rejected_shape,
                 "calls a computed function (" + spell(e.span()) + ")");
          return false;
        }
        const std::string& callee = e.callee->name;
        if (callee == "len" || callee == "part_lower" ||
            callee == "part_upper" || callee == "mk_index") {
          reject(d, &SkeletonizeCounters::rejected_shape,
                 "calls the skeleton builtin '" + callee +
                     "' inside the element computation (" + spell(e.span()) +
                     ")",
                 "hoist the loop-invariant call into a variable before the "
                 "loop");
          return false;
        }
        if (impure_builtin(callee)) {
          reject(d, &SkeletonizeCounters::rejected_impure,
                 "calls the impure builtin '" + callee + "' at " +
                     spell(e.span()));
          return false;
        }
        const Function* fn = program_.find_function(callee);
        if (fn == nullptr || fn->is_prototype) {
          reject(d, &SkeletonizeCounters::rejected_impure,
                 "calls '" + callee + "' (" + spell(e.span()) +
                     "), which has no definition and cannot be proven pure");
          return false;
        }
        if (fn->is_hof()) {
          reject(d, &SkeletonizeCounters::rejected_shape,
                 "calls the higher-order function '" + callee + "' (" +
                     spell(e.span()) + ")");
          return false;
        }
        if (e.args.size() != fn->params.size()) {
          reject(d, &SkeletonizeCounters::rejected_shape,
                 "partially applies '" + callee + "' (" + spell(e.span()) +
                     ")");
          return false;
        }
        std::string why;
        if (!oracle_.pure(callee, &why)) {
          reject(d, &SkeletonizeCounters::rejected_impure,
                 "calls '" + callee + "', which " + why);
          return false;
        }
        for (const ExprPtr& arg : e.args)
          if (!scan_elem(*arg, s, d)) return false;
        return true;
      }
      case Expr::Kind::kBinary:
        return scan_elem(*e.lhs, s, d) && scan_elem(*e.rhs, s, d);
      case Expr::Kind::kUnary:
        return scan_elem(*e.lhs, s, d);
      case Expr::Kind::kAssign:
        reject(d, &SkeletonizeCounters::rejected_shape,
               "assigns inside the element computation (" + spell(e.span()) +
                   ")");
        return false;
      case Expr::Kind::kSection:
        reject(d, &SkeletonizeCounters::rejected_shape,
               "passes an operator section inside the element computation (" +
                   spell(e.span()) + ")");
        return false;
    }
    return true;
  }

  // --- bounds --------------------------------------------------------------

  enum class BoundCheck { kOk, kNotBoundCall, kFailed };

  /// Verifies that `e` is `<builtin>(array)` for one of the builtin
  /// `names` and exactly the given `array`.  The bound is pinned to
  /// the one array the synthesized skeleton iterates (`role` says
  /// which, for the note): a bound ranging over any *other* array --
  /// even one the body touches -- would let the rewrite change the
  /// trip count whenever the lengths differ, breaking bit-identity.
  BoundCheck check_bound_call(const Expr& e,
                              const std::vector<std::string>& names,
                              const std::string& array,
                              const std::string& role, const LoopDiag& d) {
    if (e.kind != Expr::Kind::kCall || e.callee->kind != Expr::Kind::kName)
      return BoundCheck::kNotBoundCall;
    const std::string& callee = e.callee->name;
    if (std::find(names.begin(), names.end(), callee) == names.end())
      return BoundCheck::kNotBoundCall;
    const Function* fn = program_.find_function(callee);
    if (fn == nullptr || !fn->is_prototype) {
      reject(d, &SkeletonizeCounters::rejected_bounds,
             "the bound calls '" + callee +
                 "', which is a defined function here, not the skeleton "
                 "builtin");
      return BoundCheck::kFailed;
    }
    if (e.args.size() != 1 || e.args[0]->kind != Expr::Kind::kName) {
      reject(d, &SkeletonizeCounters::rejected_bounds,
             "the bound '" + spell_expr(e) + "' does not name an array");
      return BoundCheck::kFailed;
    }
    if (e.args[0]->name != array) {
      reject(d, &SkeletonizeCounters::rejected_bounds,
             "the bound '" + spell_expr(e) + "' does not range over '" +
                 array + "', the " + role,
             "the rewrite would change the trip count whenever the arrays "
             "differ in length");
      return BoundCheck::kFailed;
    }
    return BoundCheck::kOk;
  }

  bool check_bounds(const Expr& lo, const Expr& hi, const std::string& array,
                    const std::string& role, const LoopDiag& d) {
    if (!(lo.kind == Expr::Kind::kIntLit && lo.int_value == 0)) {
      switch (check_bound_call(lo, {"part_lower"}, array, role, d)) {
        case BoundCheck::kFailed:
          return false;
        case BoundCheck::kNotBoundCall:
          reject(d, &SkeletonizeCounters::rejected_bounds,
                 "the lower bound '" + spell_expr(lo) +
                     "' does not start the array (expected 0 or part_lower)");
          return false;
        case BoundCheck::kOk:
          break;
      }
    }
    switch (check_bound_call(hi, {"len", "part_upper"}, array, role, d)) {
      case BoundCheck::kFailed:
        return false;
      case BoundCheck::kNotBoundCall:
        reject(d, &SkeletonizeCounters::rejected_bounds,
               "the upper bound '" + spell_expr(hi) +
                   "' does not span the array (expected len or part_upper)");
        return false;
      case BoundCheck::kOk:
        break;
    }
    return true;
  }

  /// The canonical map/fold bodies call mk_index/part_lower/part_upper;
  /// a program that redefines one of those names as a regular function
  /// would capture the calls, so recognition refuses.
  bool builtins_available(const LoopDiag& d) {
    for (const char* name : {"mk_index", "part_lower", "part_upper"}) {
      const Function* fn = program_.find_function(name);
      if (fn == nullptr) continue;  // the rewrite splices the prototype
      if (!fn->is_prototype || fn->params.size() != 1) {
        reject(d, &SkeletonizeCounters::rejected_shape,
               std::string("'") + name +
                   "' is declared as a regular function here, shadowing the "
                   "skeleton builtin the rewrite needs");
        return false;
      }
    }
    return true;
  }

  // --- induction-variable removal ------------------------------------------

  /// The rewrite deletes `enclosing` (and with it the step assignment
  /// and -- in declaration form -- the declaration of `var`), so `var`
  /// must be dead after the loop and, when declared by the loop, never
  /// mentioned outside it.
  bool check_induction(const Stmt& enclosing, const Stmt& declaring,
                       const std::string& var, const LoopDiag& d) {
    if (liveness_.live_after_loop(*fn_, enclosing, var)) {
      reject(d, &SkeletonizeCounters::rejected_induction,
             "the induction variable '" + var +
                 "' is still live after the loop",
             "the rewrite deletes the counting loop, so '" + var +
                 "' would be left unassigned");
      return false;
    }
    if (declaring.for_init != nullptr &&
        declaring.for_init->kind == Stmt::Kind::kVarDecl) {
      const int total = count_occurrences(fn_->body, var);
      const int inside = count_occurrences_stmt(enclosing, var);
      if (total != inside) {
        reject(d, &SkeletonizeCounters::rejected_induction,
               "the induction variable '" + var +
                   "' is declared by the loop but used outside it");
        return false;
      }
    }
    return true;
  }

  // --- map -----------------------------------------------------------------

  Action try_map(std::vector<StmtPtr>& stmts, std::size_t idx,
                 const m::LoopHeader& header, const Expr& update,
                 const LoopDiag& d) {
    Stmt& loop = *stmts[idx];
    const Expr& store = *update.lhs;  // kIndex
    if (store.lhs->kind != Expr::Kind::kName)
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "stores through '" + spell_expr(store) + "' (" +
                        spell(store.span()) + "), not a named array");
    const std::string dst = store.lhs->name;
    switch (classify_index(*store.rhs, header.var)) {
      case IndexClass::kExact:
        break;
      case IndexClass::kCarried:
        return reject(d, &SkeletonizeCounters::rejected_carried,
                      "writes '" + spell_expr(store) +
                          "' across iterations (" + spell(store.span()) + ")",
                      "cross-iteration dependences cannot run as a parallel "
                      "skeleton");
      case IndexClass::kIndirect:
        return reject(d, &SkeletonizeCounters::rejected_indirect,
                      "writes '" + spell_expr(store) +
                          "', whose index is not the induction variable '" +
                          header.var + "' (" + spell(store.span()) + ")");
    }
    if (store.type == nullptr || (store.type->kind != Type::Kind::kInt &&
                                  store.type->kind != Type::Kind::kFloat))
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the elements of '" + dst + "' are not int or float");

    ElemScan scan(header.var, nullptr);
    if (!scan_elem(*update.rhs, scan, d)) return Action::kRecurse;
    // A constant fill (b[i] = 0) reads no source; the skeleton then
    // maps the destination onto itself.
    const std::string src = scan.source.empty() ? dst : scan.source;
    const TypePtr elem_type =
        scan.source.empty() ? store.type : scan.source_type;
    // The synthesized array_map iterates part_lower(src)..part_upper
    // (src), so the loop must be bounded by `src` itself: a bound over
    // the destination would silently change which elements of `dst`
    // are written when the two lengths differ.
    if (!check_bounds(*header.lo, *header.hi, src,
                      "array the skeleton traverses", d))
      return Action::kRecurse;
    if (!builtins_available(d)) return Action::kRecurse;
    if (!check_induction(loop, loop, header.var, d)) return Action::kRecurse;

    ++counters_.recognized_map;
    const std::string skel = map_skeleton_name();
    const std::string stage = fresh_stage_name("__skel_map_", &map_fn_id_);
    const std::string call_text = skel + "(" + stage_call_text(stage, scan) +
                                  ", " + src + ", " + dst + ")";
    note_recognized(d, call_text, "the body is a pure element-wise update");
    if (!rewrite_) return Action::kNoRecurse;

    synthesize_stage(stage, scan, elem_type, store.type, *update.rhs,
                     loop.span());
    std::vector<ExprPtr> args;
    args.push_back(stage_ref(stage, scan));
    args.push_back(make_name(src));
    args.push_back(make_name(dst));
    ExprPtr call = make_call(make_name(skel), std::move(args));
    stamp_expr(*call, loop.span());
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kExpr;
    stmt->expr = std::move(call);
    stmt->line = loop.line;
    stmt->column = loop.column;
    stmts[idx] = std::move(stmt);
    liveness_.invalidate();
    return Action::kReplaced;
  }

  // --- fold ----------------------------------------------------------------

  Action try_fold(std::vector<StmtPtr>& stmts, std::size_t idx,
                  const m::LoopHeader& header, const Expr& update,
                  const LoopDiag& d) {
    Stmt& loop = *stmts[idx];
    const std::string acc = update.lhs->name;
    if (acc == header.var)
      return reject(d, &SkeletonizeCounters::rejected_induction,
                    "the loop writes its own induction variable '" + acc +
                        "' in the body");
    const TypePtr acc_type = update.lhs->type;
    if (acc_type != nullptr && acc_type->kind == Type::Kind::kFloat)
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "floating-point accumulation is not skeletonized: "
                    "seeding the fold from the identity can change result "
                    "bits");
    if (acc_type == nullptr || acc_type->kind != Type::Kind::kInt)
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the accumulator '" + acc + "' is not an int");

    // `acc = acc op EXPR` (either operand order) with op in {+, *}.
    const Expr& rhs = *update.rhs;
    const Expr* elem_expr = nullptr;
    std::string op;
    if (rhs.kind == Expr::Kind::kBinary &&
        (rhs.name == "+" || rhs.name == "*")) {
      if (rhs.lhs->kind == Expr::Kind::kName && rhs.lhs->name == acc) {
        op = rhs.name;
        elem_expr = rhs.rhs.get();
      } else if (rhs.rhs->kind == Expr::Kind::kName && rhs.rhs->name == acc) {
        op = rhs.name;
        elem_expr = rhs.lhs.get();
      }
    }
    if (elem_expr == nullptr) {
      if (rhs.kind == Expr::Kind::kBinary &&
          (rhs.name == "-" || rhs.name == "/") &&
          rhs.lhs->kind == Expr::Kind::kName && rhs.lhs->name == acc)
        return reject(d, &SkeletonizeCounters::rejected_accumulator,
                      "'" + rhs.name +
                          "' does not form an associative accumulation");
      if (occurs_in_expr(rhs, acc))
        return reject(d, &SkeletonizeCounters::rejected_accumulator,
                      "the update is not of the form '" + acc + " = " + acc +
                          " (+) e'");
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the loop overwrites '" + acc + "' without accumulating");
    }

    ElemScan scan(header.var, &acc);
    if (!scan_elem(*elem_expr, scan, d)) return Action::kRecurse;
    if (scan.source.empty())
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the accumulation does not read an array element");
    if (!check_bounds(*header.lo, *header.hi, scan.source,
                      "array the skeleton traverses", d))
      return Action::kRecurse;
    if (!builtins_available(d)) return Action::kRecurse;

    // The canonical fold seeds from the first element, so the
    // sequential seed must be the operator's identity for the results
    // to agree.
    const long identity = op == "+" ? 0 : 1;
    // Scan back over bare declarations of *other* locals (the
    // idiomatic `int total = 0; int i; for (...)` shape puts the
    // induction variable's declaration between seed and loop).
    size_t seed_idx = idx;
    while (seed_idx > 0 && stmts[seed_idx - 1]->kind == Stmt::Kind::kVarDecl &&
           stmts[seed_idx - 1]->init == nullptr &&
           stmts[seed_idx - 1]->decl_name != acc)
      --seed_idx;
    const Stmt* seed = seed_idx > 0 ? stmts[seed_idx - 1].get() : nullptr;
    bool seed_ok = false;
    if (seed != nullptr) {
      if (seed->kind == Stmt::Kind::kVarDecl && seed->decl_name == acc &&
          seed->init != nullptr && seed->init->kind == Expr::Kind::kIntLit &&
          seed->init->int_value == identity)
        seed_ok = true;
      if (seed->kind == Stmt::Kind::kExpr && seed->expr != nullptr &&
          seed->expr->kind == Expr::Kind::kAssign &&
          seed->expr->lhs->kind == Expr::Kind::kName &&
          seed->expr->lhs->name == acc &&
          seed->expr->rhs->kind == Expr::Kind::kIntLit &&
          seed->expr->rhs->int_value == identity)
        seed_ok = true;
    }
    if (!seed_ok)
      return reject(d, &SkeletonizeCounters::rejected_accumulator,
                    "'" + acc + "' is not initialised to " +
                        std::to_string(identity) + ", the identity of '" +
                        op + "', immediately before the loop",
                    "write '" + acc + " = " + std::to_string(identity) +
                        ";' directly before the loop");
    if (!check_induction(loop, loop, header.var, d)) return Action::kRecurse;

    ++counters_.recognized_fold;
    const std::string skel = fold_skeleton_name();
    const std::string stage = fresh_stage_name("__skel_fold_", &fold_fn_id_);
    const std::string call_text = acc + " = " + skel + "(" +
                                  stage_call_text(stage, scan) + ", (" + op +
                                  "), " + scan.source + ")";
    note_recognized(d, call_text,
                    "the body is a pure (" + op +
                        ")-accumulation from the identity",
                    "the call is guarded: an empty partition keeps the seed, "
                    "exactly as the loop would");
    if (!rewrite_) return Action::kNoRecurse;

    // The canonical fold seeds from a[part_lower(a)] unconditionally,
    // so the bare call would read out of bounds exactly where the
    // sequential loop runs zero times.  The rewrite therefore keeps
    // the identity seed and guards the call on a non-empty partition:
    // `if (part_lower(a) < part_upper(a)) acc = fold(...);`.
    synthesize_stage(stage, scan, scan.source_type, acc_type, *elem_expr,
                     loop.span());
    std::vector<ExprPtr> args;
    args.push_back(stage_ref(stage, scan));
    args.push_back(make_section(op));
    args.push_back(make_name(scan.source));
    ExprPtr call = make_call(make_name(skel), std::move(args));
    ExprPtr update_expr = make_assign(make_name(acc), std::move(call));

    std::vector<ExprPtr> lo_args;
    lo_args.push_back(make_name(scan.source));
    std::vector<ExprPtr> hi_args;
    hi_args.push_back(make_name(scan.source));
    ExprPtr cond =
        make_binary("<", make_call(make_name("part_lower"), std::move(lo_args)),
                    make_call(make_name("part_upper"), std::move(hi_args)));
    stamp_expr(*cond, loop.span());
    stamp_expr(*update_expr, loop.span());

    auto call_stmt = std::make_unique<Stmt>();
    call_stmt->kind = Stmt::Kind::kExpr;
    call_stmt->expr = std::move(update_expr);
    call_stmt->line = loop.line;
    call_stmt->column = loop.column;
    auto guard = std::make_unique<Stmt>();
    guard->kind = Stmt::Kind::kIf;
    guard->expr = std::move(cond);
    guard->body.push_back(std::move(call_stmt));
    guard->line = loop.line;
    guard->column = loop.column;
    stmts[idx] = std::move(guard);
    liveness_.invalidate();
    return Action::kReplaced;
  }

  // --- gen_mult ------------------------------------------------------------

  Action try_gen_mult(std::vector<StmtPtr>& stmts, std::size_t idx,
                      const m::LoopHeader& h1, const Stmt& mid,
                      const Stmt& inner) {
    Stmt& loop = *stmts[idx];
    const m::LoopHeader h2 = m::match_loop_header(mid);
    const m::LoopHeader h3 = m::match_loop_header(inner);
    if (!h2.canonical || !h3.canonical) {
      // Examine the inner loops on their own (kRecurse).
      LoopDiag d{loop.span(), "loop over '" + h1.var + "'",
                 stmt_contains_index(loop)};
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the body is a nested loop, not a single update "
                    "statement");
    }
    counters_.loops_seen += 2;
    LoopDiag d{loop.span(),
               "loop nest over '" + h1.var + "', '" + h2.var + "', '" +
                   h3.var + "'",
               stmt_contains_index(loop)};
    for (const m::LoopHeader* h : {&h1, &h2, &h3})
      if (h->stride != 1)
        return reject(d, &SkeletonizeCounters::rejected_stride,
                      "the loop advances '" + h->var + "' by " +
                          std::to_string(h->stride) + ", not 1",
                      "only unit-stride loops map onto the block-distributed "
                      "skeletons",
                      Action::kNoRecurse);
    if (h1.var == h2.var || h1.var == h3.var || h2.var == h3.var)
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the nest reuses an induction variable", "",
                    Action::kNoRecurse);
    const Stmt* body = single_stmt(inner.body);
    if (body == nullptr || body->kind != Stmt::Kind::kExpr ||
        body->expr == nullptr || body->expr->kind != Expr::Kind::kAssign)
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the innermost statement is not a single update",
                    "", Action::kNoRecurse);

    // c[i][j] = c[i][j] (+) a[i][k] (*) b[k][j], with named binary
    // functions accepted for (+)/(*) and commuted operand orders for
    // the builtin operators.
    const m::Pattern cij = m::indexed(
        m::indexed(m::name_capture("c"), m::name(h1.var)), m::name(h2.var));
    const m::Pattern aik = m::indexed(
        m::indexed(m::name_capture("a"), m::name(h1.var)), m::name(h3.var));
    const m::Pattern bkj = m::indexed(
        m::indexed(m::name_capture("b"), m::name(h3.var)), m::name(h2.var));
    const m::Pattern prod =
        m::one_of({m::binary("*", aik, bkj), m::binary("*", bkj, aik),
                   m::call(m::name_capture("mult"), {aik, bkj})});
    const m::Pattern sum =
        m::one_of({m::binary("+", cij, prod), m::binary("+", prod, cij),
                   m::call(m::name_capture("add"), {cij, prod})});
    const m::Pattern pattern = m::assign(cij, sum);
    m::MatchContext ctx;
    if (!pattern->match(*body->expr, ctx))
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the innermost statement is not the matrix-product "
                    "update 'c[i][j] = c[i][j] + a[i][k] * b[k][j]'",
                    "", Action::kNoRecurse);
    const std::string c = ctx.get("c")->name;
    const std::string a = ctx.get("a")->name;
    const std::string b = ctx.get("b")->name;
    if (c == a || c == b)
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the product overwrites its own input '" + c + "'", "",
                    Action::kNoRecurse);
    const TypePtr elem_type = body->expr->lhs->type;
    if (elem_type == nullptr || (elem_type->kind != Type::Kind::kInt &&
                                 elem_type->kind != Type::Kind::kFloat))
      return reject(d, &SkeletonizeCounters::rejected_shape,
                    "the elements of '" + c + "' are not int or float", "",
                    Action::kNoRecurse);

    // Named (+)/(*) customizers must be defined, binary and pure.
    for (const char* slot : {"add", "mult"}) {
      const Expr* named = ctx.get(slot);
      if (named == nullptr) continue;
      const Function* fn = program_.find_function(named->name);
      if (fn == nullptr || fn->is_prototype)
        return reject(d, &SkeletonizeCounters::rejected_impure,
                      "calls '" + named->name +
                          "' (" + spell(named->span()) +
                          "), which has no definition and cannot be proven "
                          "pure",
                      "", Action::kNoRecurse);
      if (fn->is_hof() || fn->params.size() != 2)
        return reject(d, &SkeletonizeCounters::rejected_shape,
                      "'" + named->name +
                          "' is not a binary first-order function",
                      "", Action::kNoRecurse);
      std::string why;
      if (!oracle_.pure(named->name, &why))
        return reject(d, &SkeletonizeCounters::rejected_impure,
                      "calls '" + named->name + "', which " + why, "",
                      Action::kNoRecurse);
    }

    // Bounds: the spliced skeleton iterates i over len(a) and j, k
    // over len(b), so each source loop is pinned to exactly that
    // bound.  Accepting 'len' of any multiplied array would let a
    // rectangular nest (say j < len(c) with len(c) != len(b)) rewrite
    // into a different trip count.
    const struct {
      const m::LoopHeader* h;
      const std::string* bound;
    } dims[] = {{&h1, &a}, {&h2, &b}, {&h3, &b}};
    for (const auto& dim : dims) {
      const m::LoopHeader* h = dim.h;
      if (!(h->lo->kind == Expr::Kind::kIntLit && h->lo->int_value == 0))
        return reject(d, &SkeletonizeCounters::rejected_bounds,
                      "the lower bound '" + spell_expr(*h->lo) + "' of '" +
                          h->var + "' is not 0",
                      "", Action::kNoRecurse);
      switch (check_bound_call(*h->hi, {"len"}, *dim.bound,
                               "array whose length the skeleton's '" +
                                   h->var + "' dimension spans",
                               d)) {
        case BoundCheck::kOk:
          break;
        case BoundCheck::kFailed:
          return Action::kNoRecurse;
        case BoundCheck::kNotBoundCall:
          return reject(d, &SkeletonizeCounters::rejected_bounds,
                        "the upper bound '" + spell_expr(*h->hi) + "' of '" +
                            h->var + "' is not 'len(" + *dim.bound + ")'",
                        "", Action::kNoRecurse);
      }
    }

    if (!check_induction(loop, loop, h1.var, d) ||
        !check_induction(loop, mid, h2.var, d) ||
        !check_induction(loop, inner, h3.var, d))
      return Action::kNoRecurse;

    ++counters_.recognized_gen_mult;
    const std::string skel =
        gen_mult_skeleton_name(elem_type->kind == Type::Kind::kFloat);
    const std::string add_text =
        ctx.get("add") != nullptr ? ctx.get("add")->name : "(+)";
    const std::string mult_text =
        ctx.get("mult") != nullptr ? ctx.get("mult")->name : "(*)";
    const std::string call_text = skel + "(" + a + ", " + b + ", " +
                                  add_text + ", " + mult_text + ", " + c +
                                  ")";
    note_recognized(d, call_text,
                    "the nest is the paper's generalized matrix product",
                    "the nest's bounds match the skeleton's traversal: '" +
                        h1.var + "' spans len(" + a + "), '" + h2.var +
                        "' and '" + h3.var + "' span len(" + b + ")");
    if (!rewrite_) return Action::kNoRecurse;

    const auto customizer = [&](const char* slot, const char* op) {
      const Expr* named = ctx.get(slot);
      return named != nullptr ? make_name(named->name) : make_section(op);
    };
    std::vector<ExprPtr> args;
    args.push_back(make_name(a));
    args.push_back(make_name(b));
    args.push_back(customizer("add", "+"));
    args.push_back(customizer("mult", "*"));
    args.push_back(make_name(c));
    ExprPtr call = make_call(make_name(skel), std::move(args));
    stamp_expr(*call, loop.span());
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kExpr;
    stmt->expr = std::move(call);
    stmt->line = loop.line;
    stmt->column = loop.column;
    stmts[idx] = std::move(stmt);
    liveness_.invalidate();
    return Action::kReplaced;
  }

  // --- synthesis -----------------------------------------------------------

  /// The customizing-call spelling shared by the note and the rewrite:
  /// `__skel_map_0` or, with free scalars, `__skel_map_0(w, t)`
  /// (partial application at the skeleton call site, paper style).
  static std::string stage_call_text(const std::string& stage,
                                     const ElemScan& scan) {
    if (scan.scalars.empty()) return stage;
    std::string out = stage + "(";
    for (std::size_t i = 0; i < scan.scalars.size(); ++i) {
      if (i > 0) out += ", ";
      out += scan.scalars[i];
    }
    return out + ")";
  }

  static ExprPtr stage_ref(const std::string& stage, const ElemScan& scan) {
    ExprPtr ref = make_name(stage);
    if (scan.scalars.empty()) return ref;
    std::vector<ExprPtr> args;
    for (const std::string& scalar : scan.scalars)
      args.push_back(make_name(scalar));
    return make_call(std::move(ref), std::move(args));
  }

  /// Replaces every read `source[var]` with the element parameter.
  static void replace_source_reads(ExprPtr& e, const std::string& source,
                                   const std::string& var,
                                   const std::string& elem) {
    if (e->kind == Expr::Kind::kIndex && e->lhs->kind == Expr::Kind::kName &&
        e->lhs->name == source && e->rhs->kind == Expr::Kind::kName &&
        e->rhs->name == var) {
      const TypePtr type = e->type;
      e = make_name(elem);
      e->type = type;
      return;
    }
    if (e->lhs) replace_source_reads(e->lhs, source, var, elem);
    if (e->rhs) replace_source_reads(e->rhs, source, var, elem);
    if (e->callee) replace_source_reads(e->callee, source, var, elem);
    for (ExprPtr& arg : e->args) replace_source_reads(arg, source, var, elem);
  }

  /// Builds `ret NAME(scalars..., E elem, Index ix) { return EXPR'; }`
  /// where EXPR' is the element expression with source reads replaced.
  void synthesize_stage(const std::string& name, const ElemScan& scan,
                        const TypePtr& elem_type, const TypePtr& ret_type,
                        const Expr& expr, Span span) {
    std::string elem = "elem";
    while (occurs_in_expr(expr, elem) || scan.scalar_set.count(elem) > 0 ||
           elem == scan.var)
      elem += "_";
    std::string ix = "ix";
    while (occurs_in_expr(expr, ix) || scan.scalar_set.count(ix) > 0 ||
           ix == scan.var || ix == elem)
      ix += "_";

    ExprPtr body = expr.clone();
    replace_source_reads(body, scan.source, scan.var, elem);
    stamp_expr(*body, span);

    Function fn;
    fn.ret = ret_type;
    fn.name = name;
    for (std::size_t i = 0; i < scan.scalars.size(); ++i)
      fn.params.push_back(
          Param{scan.scalar_types[i], scan.scalars[i], span.line, span.column});
    fn.params.push_back(Param{elem_type, elem, span.line, span.column});
    fn.params.push_back(
        Param{Type::make_named("Index"), ix, span.line, span.column});
    auto ret = std::make_unique<Stmt>();
    ret->kind = Stmt::Kind::kReturn;
    ret->expr = std::move(body);
    ret->line = span.line;
    ret->column = span.column;
    fn.body.push_back(std::move(ret));
    fn.line = span.line;
    fn.column = span.column;
    synthesized_.push_back(std::move(fn));
  }

  // --- name claiming and skeleton injection --------------------------------

  bool taken(const std::string& name) const {
    return claimed_names_.count(name) > 0 ||
           program_.find_function(name) != nullptr;
  }

  /// The canonical name when free, `__skel_<canonical>` otherwise.
  /// Claimed in both modes so advisory notes spell the exact call the
  /// rewrite would emit.
  std::string claim_skeleton(const std::string& canonical) {
    std::string name = canonical;
    if (taken(name)) {
      name = "__skel_" + canonical;
      while (taken(name)) name += "_";
    }
    claimed_names_.insert(name);
    return name;
  }

  std::string fresh_stage_name(const char* prefix, int* id) {
    std::string name = prefix + std::to_string((*id)++);
    while (taken(name)) name += "_";
    claimed_names_.insert(name);
    return name;
  }

  void inject_parsed(const std::string& text) {
    Program snippet = parse(text);
    for (Function& fn : snippet.functions)
      synthesized_.push_back(std::move(fn));
  }

  void ensure_builtin(const std::string& name, const std::string& text) {
    if (program_.find_function(name) != nullptr ||
        injected_builtins_.count(name) > 0)
      return;
    injected_builtins_.insert(name);
    inject_parsed(text);
  }

  void ensure_map_fold_builtins() {
    ensure_builtin("mk_index", "Index mk_index (int i);\n");
    ensure_builtin("part_lower", "int part_lower (array <$t> a);\n");
    ensure_builtin("part_upper", "int part_upper (array <$t> a);\n");
  }

  const std::string& map_skeleton_name() {
    if (map_name_.empty()) {
      map_name_ = claim_skeleton("array_map");
      if (rewrite_) {
        ensure_map_fold_builtins();
        inject_parsed(map_def_text(map_name_));
      }
    }
    return map_name_;
  }

  const std::string& fold_skeleton_name() {
    if (fold_name_.empty()) {
      fold_name_ = claim_skeleton("array_fold");
      if (rewrite_) {
        ensure_map_fold_builtins();
        inject_parsed(fold_def_text(fold_name_));
      }
    }
    return fold_name_;
  }

  const std::string& gen_mult_skeleton_name(bool is_float) {
    std::string& name = gen_mult_names_[is_float];
    if (name.empty()) {
      name = claim_skeleton("array_gen_mult");
      if (rewrite_)
        inject_parsed(gen_mult_def_text(name, is_float ? "float" : "int"));
    }
    return name;
  }

  Program& program_;
  DiagnosticSink& sink_;
  const bool rewrite_;
  PurityOracle oracle_;
  SkeletonizeCounters counters_;
  const Function* fn_ = nullptr;
  FnLiveness liveness_;
  std::vector<Function> synthesized_;
  std::set<std::string> claimed_names_;
  std::set<std::string> injected_builtins_;
  int map_fn_id_ = 0;
  int fold_fn_id_ = 0;
  std::string map_name_;
  std::string fold_name_;
  std::map<bool, std::string> gen_mult_names_;
};

}  // namespace

SkeletonizeCounters skeletonize_program(Program& program,
                                        DiagnosticSink& sink) {
  Skeletonizer pass(program, sink, /*rewrite=*/true);
  return pass.run();
}

SkeletonizeCounters analyze_skeletonize(const Program& program,
                                        DiagnosticSink& sink) {
  // Advisory: identical recognition, no mutation (the shared run()
  // only appends synthesized functions in rewrite mode, and none are
  // synthesized when rewrite_ is false).
  Skeletonizer pass(const_cast<Program&>(program), sink, /*rewrite=*/false);
  return pass.run();
}

}  // namespace skil::skilc
