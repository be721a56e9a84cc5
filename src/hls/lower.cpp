#include <map>
#include <optional>

#include "base/check.hpp"
#include "hls/ast.hpp"
#include "hls/dfg.hpp"

namespace hlshc::hls {

namespace {

/// Symbolic executor: walks the AST, maintaining a scalar environment of
/// SSA value ids, emitting DFG nodes, folding constants as it goes.
class Lowerer {
 public:
  Lowerer(const Program& program, const LowerOptions& options)
      : program_(program), options_(options) {}

  LeafDfg run_leaf(const std::string& name, int64_t off_value) {
    const Function* fn = program_.find(name);
    HLSHC_CHECK(fn != nullptr, "no function '" << name << '\'');
    leaf_mode_ = true;
    dfg_.mem_size = 64;
    Env env;
    for (const Param& p : fn->params) {
      if (p.is_array) {
        env.array_param = p.name;
      } else {
        env.vars[p.name] = konst(off_value);
      }
    }
    exec_block(*fn->body, env, /*region=*/0);
    LeafDfg leaf;
    leaf.dfg = std::move(dfg_);
    for (const auto& [addr, node] : leaf_inputs_)
      leaf.input_addrs.push_back(addr);
    for (const auto& [addr, node] : leaf_outputs_)
      leaf.outputs.emplace_back(addr, node);
    return leaf;
  }

  Dfg run(const std::string& top) {
    const Function* fn = program_.find(top);
    HLSHC_CHECK(fn != nullptr, "no top function '" << top << '\'');
    HLSHC_CHECK(fn->params.size() == 1 && fn->params[0].is_array,
                "top function must take a single array parameter");
    dfg_.mem_size = fn->params[0].array_size;
    Env env;
    env.array_param = fn->params[0].name;
    exec_block(*fn->body, env, /*region=*/0);
    dfg_.regions = next_region_;
    return std::move(dfg_);
  }

 private:
  struct Env {
    std::map<std::string, int> vars;  ///< scalar name -> DFG node
    std::string array_param;          ///< name bound to the external array
  };

  int konst(int64_t v) {
    // Memoize constants to keep the graph small.
    auto it = const_cache_.find(v);
    if (it != const_cache_.end()) return it->second;
    int id = dfg_.add_node(DNode{DOp::kConst, v, -1, -1, -1, 0});
    const_cache_[v] = id;
    return id;
  }

  int emit(DOp op, int a, int b, int c, int region) {
    // Local constant folding: all-const operands compute now.
    auto cv = [&](int i) { return dfg_.const_value(i); };
    bool fold = (a < 0 || dfg_.is_const(a)) && (b < 0 || dfg_.is_const(b)) &&
                (c < 0 || dfg_.is_const(c)) && op != DOp::kLoad &&
                op != DOp::kStore;
    if (fold) {
      int64_t x = a >= 0 ? cv(a) : 0, y = b >= 0 ? cv(b) : 0,
              z = c >= 0 ? cv(c) : 0;
      int64_t r = 0;
      switch (op) {
        case DOp::kAdd: r = static_cast<int32_t>(x + y); break;
        case DOp::kSub: r = static_cast<int32_t>(x - y); break;
        case DOp::kMul: r = static_cast<int32_t>(x * y); break;
        case DOp::kShl: r = static_cast<int32_t>(x << (y & 31)); break;
        case DOp::kShr: r = static_cast<int32_t>(x >> (y & 31)); break;
        case DOp::kAnd: r = x & y; break;
        case DOp::kOr: r = x | y; break;
        case DOp::kXor: r = x ^ y; break;
        case DOp::kLt: r = x < y; break;
        case DOp::kGt: r = x > y; break;
        case DOp::kLe: r = x <= y; break;
        case DOp::kGe: r = x >= y; break;
        case DOp::kEq: r = x == y; break;
        case DOp::kNe: r = x != y; break;
        case DOp::kSelect: r = x ? y : z; break;
        case DOp::kNeg: r = -x; break;
        case DOp::kNot: r = !x; break;
        case DOp::kCastShort: r = static_cast<int16_t>(x); break;
        default: HLSHC_UNREACHABLE("fold");
      }
      return konst(r);
    }
    return dfg_.add_node(DNode{op, 0, a, b, c, region});
  }

  int64_t const_index(int node, int line_hint) {
    HLSHC_CHECK(dfg_.is_const(node),
                "array index does not fold to a constant (op "
                    << static_cast<int>(dfg_.node(node).op) << ", near "
                    << line_hint << ')');
    return dfg_.const_value(node);
  }

  // ---- expressions ----------------------------------------------------------

  int eval(const Expr& e, Env& env, int region) {
    switch (e.kind) {
      case Expr::Kind::kNumber:
        return konst(e.value);
      case Expr::Kind::kVar: {
        auto it = env.vars.find(e.name);
        HLSHC_CHECK(it != env.vars.end(),
                    "use of undefined variable '" << e.name << '\'');
        return it->second;
      }
      case Expr::Kind::kIndex: {
        HLSHC_CHECK(e.name == env.array_param,
                    "unknown array '" << e.name << '\'');
        int idx = eval(*e.a, env, region);
        int64_t addr = const_index(idx, 0);
        HLSHC_CHECK(addr >= 0 && addr < dfg_.mem_size,
                    "array index " << addr << " out of bounds");
        if (leaf_mode_) {
          // Read-after-write within the pass sees the stored value.
          if (auto it = leaf_outputs_.find(addr); it != leaf_outputs_.end())
            return it->second;
          if (auto it = leaf_inputs_.find(addr); it != leaf_inputs_.end())
            return it->second;
          int in = dfg_.add_node(DNode{DOp::kInput, addr, -1, -1, -1, region});
          leaf_inputs_[addr] = in;
          return in;
        }
        int id = dfg_.add_node(DNode{DOp::kLoad, addr, -1, -1, -1, region});
        return id;
      }
      case Expr::Kind::kBinary: {
        int a = eval(*e.a, env, region);
        int b = eval(*e.b, env, region);
        DOp op;
        switch (e.op) {
          case BinOp::kAdd: op = DOp::kAdd; break;
          case BinOp::kSub: op = DOp::kSub; break;
          case BinOp::kMul: op = DOp::kMul; break;
          case BinOp::kShl: op = DOp::kShl; break;
          case BinOp::kShr: op = DOp::kShr; break;
          case BinOp::kAnd: op = DOp::kAnd; break;
          case BinOp::kOr: op = DOp::kOr; break;
          case BinOp::kXor: op = DOp::kXor; break;
          case BinOp::kLt: op = DOp::kLt; break;
          case BinOp::kGt: op = DOp::kGt; break;
          case BinOp::kLe: op = DOp::kLe; break;
          case BinOp::kGe: op = DOp::kGe; break;
          case BinOp::kEq: op = DOp::kEq; break;
          case BinOp::kNe: op = DOp::kNe; break;
          default: HLSHC_UNREACHABLE("binop");
        }
        return emit(op, a, b, -1, region);
      }
      case Expr::Kind::kTernary: {
        int cnd = eval(*e.a, env, region);
        if (dfg_.is_const(cnd))
          return dfg_.const_value(cnd) ? eval(*e.b, env, region)
                                       : eval(*e.c, env, region);
        int t = eval(*e.b, env, region);
        int f = eval(*e.c, env, region);
        return emit(DOp::kSelect, cnd, t, f, region);
      }
      case Expr::Kind::kCall:
        return call_function(e, env, region, /*want_value=*/true);
      case Expr::Kind::kCastShort:
        return emit(DOp::kCastShort, eval(*e.a, env, region), -1, -1, region);
      case Expr::Kind::kNeg:
        return emit(DOp::kNeg, eval(*e.a, env, region), -1, -1, region);
      case Expr::Kind::kNot:
        return emit(DOp::kNot, eval(*e.a, env, region), -1, -1, region);
    }
    HLSHC_UNREACHABLE("expr kind");
  }

  // ---- calls ------------------------------------------------------------------

  int call_function(const Expr& call, Env& caller_env, int region,
                    bool want_value) {
    const Function* fn = program_.find(call.name);
    HLSHC_CHECK(fn != nullptr, "call to unknown function '" << call.name
                                                            << '\'');
    HLSHC_CHECK(call.args.size() == fn->params.size(),
                "wrong arity calling '" << call.name << '\'');

    // "Non-inlined" calls get a fresh region tag — the backend serializes
    // regions and charges interface overhead, reproducing Vivado HLS's
    // module-per-function default. Value-returning helpers (iclip) are
    // always inlined, as both real tools do for tiny leaf functions.
    int callee_region = region;
    if (!options_.inline_functions && !fn->returns_value)
      callee_region = next_region_++;

    Env env;
    env.array_param.clear();
    for (size_t i = 0; i < fn->params.size(); ++i) {
      const Param& p = fn->params[i];
      const Expr& arg = *call.args[i];
      if (p.is_array) {
        HLSHC_CHECK(arg.kind == Expr::Kind::kVar &&
                        arg.name == caller_env.array_param,
                    "array argument must be the top-level array");
        env.array_param = p.name;
      } else {
        env.vars[p.name] = eval(const_cast<Expr&>(arg), caller_env, region);
      }
    }
    std::optional<int> ret = exec_block(*fn->body, env, callee_region);
    if (want_value) {
      HLSHC_CHECK(ret.has_value(),
                  "function '" << call.name << "' did not return a value");
      return *ret;
    }
    return -1;
  }

  // ---- statements ----------------------------------------------------------------

  /// Executes a block; returns the value of a `return expr` if one runs.
  std::optional<int> exec_block(const Stmt& block, Env& env, int region) {
    HLSHC_CHECK(block.kind == Stmt::Kind::kBlock, "not a block");
    for (const StmtPtr& s : block.stmts) {
      std::optional<int> r = exec_stmt(*s, env, region);
      if (r.has_value()) return r;
    }
    return std::nullopt;
  }

  std::optional<int> exec_stmt(const Stmt& s, Env& env, int region) {
    switch (s.kind) {
      case Stmt::Kind::kBlock:
        return exec_block(s, env, region);
      case Stmt::Kind::kDecl:
        env.vars[s.name] =
            s.expr ? eval(*s.expr, env, region) : konst(0);
        return std::nullopt;
      case Stmt::Kind::kAssign: {
        HLSHC_CHECK(env.vars.count(s.name) || true, "");
        env.vars[s.name] = eval(*s.expr, env, region);
        return std::nullopt;
      }
      case Stmt::Kind::kStore: {
        HLSHC_CHECK(s.name == env.array_param,
                    "store to unknown array '" << s.name << '\'');
        int idx = eval(*s.index, env, region);
        int64_t addr = const_index(idx, 0);
        HLSHC_CHECK(addr >= 0 && addr < dfg_.mem_size,
                    "store index " << addr << " out of bounds");
        int value = eval(*s.expr, env, region);
        // The array is short[]: storing truncates (unless the value is
        // already an explicit (short) cast).
        if (dfg_.node(value).op != DOp::kCastShort)
          value = emit(DOp::kCastShort, value, -1, -1, region);
        if (leaf_mode_) {
          leaf_outputs_[addr] = value;
          return std::nullopt;
        }
        DNode st{DOp::kStore, addr, value, -1, -1, region};
        dfg_.add_node(st);
        return std::nullopt;
      }
      case Stmt::Kind::kFor: {
        Env loop_env = env;  // C scoping is close enough for this subset
        exec_stmt(*s.init, loop_env, region);
        int iters = 0;
        while (true) {
          int cond = eval(*s.expr, loop_env, region);
          HLSHC_CHECK(dfg_.is_const(cond),
                      "loop bound does not fold to a constant");
          if (!dfg_.const_value(cond)) break;
          HLSHC_CHECK(++iters <= options_.max_loop_iterations,
                      "loop exceeds unroll limit");
          std::optional<int> r = exec_stmt(*s.body, loop_env, region);
          HLSHC_CHECK(!r.has_value(), "return inside a loop is unsupported");
          exec_stmt(*s.step, loop_env, region);
        }
        return std::nullopt;
      }
      case Stmt::Kind::kIf: {
        int cond = eval(*s.expr, env, region);
        HLSHC_CHECK(dfg_.is_const(cond),
                    "only compile-time-resolvable if() is supported "
                    "(data-dependent control must be expressed as ?:)");
        if (dfg_.const_value(cond)) return exec_stmt(*s.body, env, region);
        if (s.els) return exec_stmt(*s.els, env, region);
        return std::nullopt;
      }
      case Stmt::Kind::kExpr:
        call_function(*s.expr, env, region, /*want_value=*/false);
        return std::nullopt;
      case Stmt::Kind::kReturn:
        return s.expr ? std::optional<int>(eval(*s.expr, env, region))
                      : std::optional<int>(-1);
    }
    HLSHC_UNREACHABLE("stmt kind");
  }

  const Program& program_;
  const LowerOptions& options_;
  Dfg dfg_;
  std::map<int64_t, int> const_cache_;
  std::map<int64_t, int> leaf_inputs_;
  std::map<int64_t, int> leaf_outputs_;
  bool leaf_mode_ = false;
  int next_region_ = 1;
};

}  // namespace

Dfg lower(const Program& program, const std::string& top,
          const LowerOptions& options) {
  return Lowerer(program, options).run(top);
}

LeafDfg lower_leaf(const Program& program, const std::string& function,
                   int64_t off_value) {
  LowerOptions options;
  return Lowerer(program, options).run_leaf(function, off_value);
}

std::vector<DepEdge> dependence_edges(const Dfg& dfg) {
  std::vector<DepEdge> edges;
  const int n = static_cast<int>(dfg.nodes.size());
  for (int i = 0; i < n; ++i) {
    const DNode& nd = dfg.node(i);
    for (int opnd : {nd.a, nd.b, nd.c})
      if (opnd >= 0 && !dfg.is_const(opnd))
        edges.push_back(DepEdge{opnd, i, 0});
  }
  // Memory ordering per exact address: RAW latency 1 (the write commits at
  // the clock edge), WAW latency 1, WAR latency 0 (combinational read may
  // share the writer's cycle).
  std::map<int64_t, int> last_store;
  std::map<int64_t, std::vector<int>> loads_since_store;
  for (int i = 0; i < n; ++i) {
    const DNode& nd = dfg.node(i);
    if (nd.op == DOp::kLoad) {
      auto it = last_store.find(nd.imm);
      if (it != last_store.end())
        edges.push_back(DepEdge{it->second, i, 1});
      loads_since_store[nd.imm].push_back(i);
    } else if (nd.op == DOp::kStore) {
      auto it = last_store.find(nd.imm);
      if (it != last_store.end()) edges.push_back(DepEdge{it->second, i, 1});
      for (int ld : loads_since_store[nd.imm])
        edges.push_back(DepEdge{ld, i, 0});
      loads_since_store[nd.imm].clear();
      last_store[nd.imm] = i;
    }
  }
  return edges;
}

// kept: the DFG oracle of the ROADMAP C -> FSMD differential-fuzzing item.
void interpret(const Dfg& dfg, std::vector<int32_t>& memory) {
  HLSHC_CHECK(static_cast<int>(memory.size()) >= dfg.mem_size,
              "memory image too small");
  std::vector<int64_t> val(dfg.nodes.size(), 0);
  for (size_t i = 0; i < dfg.nodes.size(); ++i) {
    const DNode& nd = dfg.nodes[i];
    auto v = [&](int k) { return k >= 0 ? val[static_cast<size_t>(k)] : 0; };
    switch (nd.op) {
      case DOp::kConst: val[i] = nd.imm; break;
      case DOp::kAdd: val[i] = static_cast<int32_t>(v(nd.a) + v(nd.b)); break;
      case DOp::kSub: val[i] = static_cast<int32_t>(v(nd.a) - v(nd.b)); break;
      case DOp::kMul: val[i] = static_cast<int32_t>(v(nd.a) * v(nd.b)); break;
      case DOp::kShl:
        val[i] = static_cast<int32_t>(v(nd.a) << (v(nd.b) & 31));
        break;
      case DOp::kShr:
        val[i] = static_cast<int32_t>(static_cast<int32_t>(v(nd.a)) >>
                                      (v(nd.b) & 31));
        break;
      case DOp::kAnd: val[i] = v(nd.a) & v(nd.b); break;
      case DOp::kOr: val[i] = v(nd.a) | v(nd.b); break;
      case DOp::kXor: val[i] = v(nd.a) ^ v(nd.b); break;
      case DOp::kLt: val[i] = v(nd.a) < v(nd.b); break;
      case DOp::kGt: val[i] = v(nd.a) > v(nd.b); break;
      case DOp::kLe: val[i] = v(nd.a) <= v(nd.b); break;
      case DOp::kGe: val[i] = v(nd.a) >= v(nd.b); break;
      case DOp::kEq: val[i] = v(nd.a) == v(nd.b); break;
      case DOp::kNe: val[i] = v(nd.a) != v(nd.b); break;
      case DOp::kSelect: val[i] = v(nd.a) ? v(nd.b) : v(nd.c); break;
      case DOp::kNeg: val[i] = static_cast<int32_t>(-v(nd.a)); break;
      case DOp::kNot: val[i] = !v(nd.a); break;
      case DOp::kCastShort: val[i] = static_cast<int16_t>(v(nd.a)); break;
      case DOp::kLoad:
        val[i] = memory[static_cast<size_t>(nd.imm)];
        break;
      case DOp::kStore:
        memory[static_cast<size_t>(nd.imm)] =
            static_cast<int32_t>(static_cast<int16_t>(v(nd.a)));
        break;
      case DOp::kInput:
        HLSHC_CHECK(false, "interpret() does not support leaf-mode DFGs");
        break;
    }
  }
}

}  // namespace hlshc::hls
