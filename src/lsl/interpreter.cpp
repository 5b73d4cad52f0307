#include "lsl/interpreter.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <optional>

#include "lsl/parser.hpp"

namespace slmob::lsl {
namespace {

Value make_int(std::int64_t v) { return Value(v); }
Value make_float(double v) { return Value(v); }

// Numeric binary op with LSL promotion (int op int stays int).
Value numeric_binop(const std::string& op, const Value& a, const Value& b, int line) {
  const auto err = [&](const char* what) { return LslError(what, line, 0); };
  if (a.is_int() && b.is_int()) {
    const std::int64_t x = a.as_int();
    const std::int64_t y = b.as_int();
    if (op == "+") return make_int(x + y);
    if (op == "-") return make_int(x - y);
    if (op == "*") return make_int(x * y);
    if (op == "/") {
      if (y == 0) throw err("integer division by zero");
      return make_int(x / y);
    }
    if (op == "%") {
      if (y == 0) throw err("integer modulo by zero");
      return make_int(x % y);
    }
  } else {
    const double x = a.as_float();
    const double y = b.as_float();
    if (op == "+") return make_float(x + y);
    if (op == "-") return make_float(x - y);
    if (op == "*") return make_float(x * y);
    if (op == "/") {
      if (y == 0.0) throw err("division by zero");
      return make_float(x / y);
    }
    if (op == "%") throw err("'%' requires integer operands");
  }
  throw err("unsupported numeric operator");
}

}  // namespace

Interpreter::Interpreter(std::string_view source, LslHost& host)
    : Interpreter(parse(source), host) {}

Interpreter::Interpreter(Script script, LslHost& host)
    : script_(std::move(script)), host_(host) {
  // Predefined constants (subset of the LSL constant table).
  globals_["TRUE"] = make_int(1);
  globals_["FALSE"] = make_int(0);
  globals_["PI"] = make_float(3.141592653589793);
  globals_["TWO_PI"] = make_float(6.283185307179586);
  globals_["PI_BY_TWO"] = make_float(1.5707963267948966);
  globals_["DEG_TO_RAD"] = make_float(0.017453292519943295);
  globals_["RAD_TO_DEG"] = make_float(57.29577951308232);
  globals_["AGENT"] = make_int(1);
  globals_["ACTIVE"] = make_int(2);
  globals_["PASSIVE"] = make_int(4);
  globals_["NULL_KEY"] = Value(std::string("00000000-0000-0000-0000-000000000000"));
  globals_["ZERO_VECTOR"] = Value(Vec3{});
  globals_["EOF"] = Value(std::string("\n\n\n"));
  globals_["STRING_TRIM_HEAD"] = make_int(1);
  globals_["STRING_TRIM_TAIL"] = make_int(2);
  globals_["STRING_TRIM"] = make_int(3);

  for (const auto& g : script_.globals) {
    globals_[g.name] = Value::default_for(g.type);
  }
}

void Interpreter::start() {
  if (started_) return;
  started_ = true;
  // Evaluate global initialisers (constants are visible to them).
  locals_.clear();
  locals_.push_back({});
  ops_this_event_ = 0;
  for (const auto& g : script_.globals) {
    if (g.init) globals_[g.name] = eval(*g.init);
  }
  locals_.clear();
  current_state_ = "default";
  fire_event("state_entry", {});
}

const StateDef& Interpreter::state_by_name(const std::string& name) const {
  for (const auto& s : script_.states) {
    if (s.name == name) return s;
  }
  throw LslError("unknown state '" + name + "'", 0, 0);
}

bool Interpreter::has_handler(const std::string& event) const {
  const StateDef& state = state_by_name(current_state_);
  return std::any_of(state.handlers.begin(), state.handlers.end(),
                     [&](const EventHandler& h) { return h.name == event; });
}

const Value* Interpreter::global(const std::string& name) const {
  const auto it = globals_.find(name);
  return it == globals_.end() ? nullptr : &it->second;
}

void Interpreter::fire_event(const std::string& name, const std::vector<Value>& args) {
  const StateDef& state = state_by_name(current_state_);
  const EventHandler* handler = nullptr;
  for (const auto& h : state.handlers) {
    if (h.name == name) {
      handler = &h;
      break;
    }
  }
  if (handler == nullptr) return;
  if (args.size() != handler->params.size()) {
    throw LslError("event '" + name + "' argument count mismatch", 0, 0);
  }

  ops_this_event_ = 0;
  locals_.clear();
  locals_.push_back({});
  for (std::size_t i = 0; i < args.size(); ++i) {
    locals_.back().vars[handler->params[i].second] = args[i];
  }
  pending_state_.clear();
  const Flow flow = exec_block(handler->body);
  locals_.clear();
  if (flow == Flow::kStateChange ||
      (!pending_state_.empty() && pending_state_ != current_state_)) {
    const std::string target = pending_state_;
    pending_state_.clear();
    if (!target.empty() && target != current_state_) {
      current_state_ = target;
      fire_event("state_entry", {});
    }
  }
}

void Interpreter::fire_timer() { fire_event("timer", {}); }

void Interpreter::fire_sensor(std::int64_t detected) {
  fire_event("sensor", {make_int(detected)});
}

void Interpreter::fire_no_sensor() { fire_event("no_sensor", {}); }

void Interpreter::fire_http_response(const std::string& request_key, std::int64_t status,
                                     const std::string& body) {
  fire_event("http_response",
             {Value(request_key), make_int(status), Value(List{}), Value(body)});
}

void Interpreter::charge(int line) {
  if (++ops_this_event_ > budget_per_event_) {
    throw LslError("instruction budget exceeded (runaway script?)", line, 0);
  }
}

Interpreter::Flow Interpreter::exec_block(const std::vector<StmtPtr>& stmts) {
  for (const auto& stmt : stmts) {
    const Flow flow = exec_stmt(*stmt);
    if (flow != Flow::kNormal) return flow;
  }
  return Flow::kNormal;
}

Interpreter::Flow Interpreter::exec_stmt(const Stmt& stmt) {
  charge(stmt.line);
  switch (stmt.kind) {
    case StmtKind::kExpr:
      eval(*stmt.expr);
      return Flow::kNormal;
    case StmtKind::kDecl: {
      Value init = stmt.init ? eval(*stmt.init) : Value::default_for(stmt.decl_type);
      // Implicit int->float on float declarations.
      if (stmt.decl_type == LslType::kFloat && init.is_int()) {
        init = make_float(init.as_float());
      }
      locals_.back().vars[stmt.name] = std::move(init);
      return Flow::kNormal;
    }
    case StmtKind::kIf: {
      locals_.push_back({});
      Flow flow = Flow::kNormal;
      if (eval(*stmt.expr).truthy()) {
        flow = exec_block(stmt.body);
      } else if (!stmt.else_body.empty()) {
        flow = exec_block(stmt.else_body);
      }
      locals_.pop_back();
      return flow;
    }
    case StmtKind::kWhile: {
      while (eval(*stmt.expr).truthy()) {
        charge(stmt.line);
        locals_.push_back({});
        const Flow flow = exec_block(stmt.body);
        locals_.pop_back();
        if (flow != Flow::kNormal) return flow;
      }
      return Flow::kNormal;
    }
    case StmtKind::kFor: {
      locals_.push_back({});
      if (stmt.for_init) eval(*stmt.for_init);
      while (!stmt.for_cond || eval(*stmt.for_cond).truthy()) {
        charge(stmt.line);
        locals_.push_back({});
        const Flow flow = exec_block(stmt.body);
        locals_.pop_back();
        if (flow != Flow::kNormal) {
          locals_.pop_back();
          return flow;
        }
        if (stmt.for_step) eval(*stmt.for_step);
      }
      locals_.pop_back();
      return Flow::kNormal;
    }
    case StmtKind::kReturn:
      return_value_ = stmt.expr ? eval(*stmt.expr) : Value();
      return Flow::kReturn;
    case StmtKind::kBlock: {
      locals_.push_back({});
      const Flow flow = exec_block(stmt.body);
      locals_.pop_back();
      return flow;
    }
    case StmtKind::kStateChange:
      pending_state_ = stmt.name;
      return Flow::kStateChange;
  }
  return Flow::kNormal;
}

Value* Interpreter::find_var(const std::string& name) {
  for (auto it = locals_.rbegin(); it != locals_.rend(); ++it) {
    const auto found = it->vars.find(name);
    if (found != it->vars.end()) return &found->second;
  }
  const auto g = globals_.find(name);
  return g == globals_.end() ? nullptr : &g->second;
}

Value Interpreter::eval(const Expr& expr) {
  charge(expr.line);
  switch (expr.kind) {
    case ExprKind::kIntLiteral:
      return make_int(expr.int_value);
    case ExprKind::kFloatLiteral:
      return make_float(expr.float_value);
    case ExprKind::kStringLiteral:
      return Value(expr.string_value);
    case ExprKind::kVectorLiteral: {
      const double x = eval(*expr.children[0]).as_float();
      const double y = eval(*expr.children[1]).as_float();
      const double z = eval(*expr.children[2]).as_float();
      return Value(Vec3{x, y, z});
    }
    case ExprKind::kListLiteral: {
      List list;
      list.reserve(expr.children.size());
      for (const auto& child : expr.children) list.push_back(eval(*child));
      return Value(std::move(list));
    }
    case ExprKind::kVariable: {
      const Value* v = find_var(expr.name);
      if (v == nullptr) {
        throw LslError("undefined variable '" + expr.name + "'", expr.line, 0);
      }
      return *v;
    }
    case ExprKind::kMember: {
      const Value base = eval(*expr.children[0]);
      const Vec3& v = base.as_vector();
      switch (expr.member) {
        case 'x':
          return make_float(v.x);
        case 'y':
          return make_float(v.y);
        default:
          return make_float(v.z);
      }
    }
    case ExprKind::kUnary: {
      Value v = eval(*expr.children[0]);
      if (expr.op == "!") return make_int(v.truthy() ? 0 : 1);
      if (v.is_int()) return make_int(-v.as_int());
      if (v.is_float()) return make_float(-v.as_float());
      if (v.is_vector()) return Value(v.as_vector() * -1.0);
      throw LslError("cannot negate this type", expr.line, 0);
    }
    case ExprKind::kIncrement: {
      Value* v = find_var(expr.name);
      if (v == nullptr) throw LslError("undefined variable '" + expr.name + "'", expr.line, 0);
      const Value before = *v;
      const std::int64_t delta = expr.op == "++" ? 1 : -1;
      if (v->is_int()) {
        *v = make_int(v->as_int() + delta);
      } else if (v->is_float()) {
        *v = make_float(v->as_float() + static_cast<double>(delta));
      } else {
        throw LslError("++/-- require a numeric variable", expr.line, 0);
      }
      return expr.is_prefix ? *v : before;
    }
    case ExprKind::kBinary: {
      // Short-circuit logicals first.
      if (expr.op == "&&") {
        return make_int(eval(*expr.children[0]).truthy() &&
                                eval(*expr.children[1]).truthy()
                            ? 1
                            : 0);
      }
      if (expr.op == "||") {
        return make_int(eval(*expr.children[0]).truthy() ||
                                eval(*expr.children[1]).truthy()
                            ? 1
                            : 0);
      }
      const Value a = eval(*expr.children[0]);
      const Value b = eval(*expr.children[1]);
      // String concatenation (lenient: either side string).
      if (expr.op == "+" && (a.is_string() || b.is_string())) {
        return Value(a.to_string() + b.to_string());
      }
      // List append/concat.
      if (expr.op == "+" && a.is_list()) {
        List out = a.as_list();
        if (b.is_list()) {
          const List& other = b.as_list();
          out.insert(out.end(), other.begin(), other.end());
        } else {
          out.push_back(b);
        }
        return Value(std::move(out));
      }
      // Vector algebra.
      if (a.is_vector() && b.is_vector()) {
        if (expr.op == "+") return Value(a.as_vector() + b.as_vector());
        if (expr.op == "-") return Value(a.as_vector() - b.as_vector());
        if (expr.op == "*") {  // dot product, as in LSL
          const Vec3& u = a.as_vector();
          const Vec3& w = b.as_vector();
          return make_float(u.x * w.x + u.y * w.y + u.z * w.z);
        }
        if (expr.op == "==") return make_int(a.as_vector() == b.as_vector() ? 1 : 0);
        if (expr.op == "!=") return make_int(a.as_vector() == b.as_vector() ? 0 : 1);
        throw LslError("unsupported vector operator '" + expr.op + "'", expr.line, 0);
      }
      if (a.is_vector() && (b.is_int() || b.is_float())) {
        if (expr.op == "*") return Value(a.as_vector() * b.as_float());
        if (expr.op == "/") return Value(a.as_vector() / b.as_float());
        throw LslError("unsupported vector-scalar operator", expr.line, 0);
      }
      // String comparisons.
      if (a.is_string() && b.is_string()) {
        const int cmp = a.as_string().compare(b.as_string());
        if (expr.op == "==") return make_int(cmp == 0 ? 1 : 0);
        if (expr.op == "!=") return make_int(cmp != 0 ? 1 : 0);
        if (expr.op == "<") return make_int(cmp < 0 ? 1 : 0);
        if (expr.op == ">") return make_int(cmp > 0 ? 1 : 0);
        if (expr.op == "<=") return make_int(cmp <= 0 ? 1 : 0);
        if (expr.op == ">=") return make_int(cmp >= 0 ? 1 : 0);
        throw LslError("unsupported string operator '" + expr.op + "'", expr.line, 0);
      }
      // Numeric comparisons.
      if (expr.op == "==" || expr.op == "!=" || expr.op == "<" || expr.op == ">" ||
          expr.op == "<=" || expr.op == ">=") {
        const double x = a.as_float();
        const double y = b.as_float();
        bool result = false;
        if (expr.op == "==") result = x == y;
        if (expr.op == "!=") result = x != y;
        if (expr.op == "<") result = x < y;
        if (expr.op == ">") result = x > y;
        if (expr.op == "<=") result = x <= y;
        if (expr.op == ">=") result = x >= y;
        return make_int(result ? 1 : 0);
      }
      return numeric_binop(expr.op, a, b, expr.line);
    }
    case ExprKind::kAssign: {
      Value rhs = eval(*expr.children[0]);
      Value* target = find_var(expr.name);
      if (target == nullptr) {
        throw LslError("assignment to undefined variable '" + expr.name + "'", expr.line, 0);
      }
      if (expr.target_is_member) {
        if (!target->is_vector()) {
          throw LslError("member assignment on non-vector", expr.line, 0);
        }
        Vec3 v = target->as_vector();
        double* slot = expr.member == 'x' ? &v.x : expr.member == 'y' ? &v.y : &v.z;
        if (expr.op == "=") {
          *slot = rhs.as_float();
        } else if (expr.op == "+=") {
          *slot += rhs.as_float();
        } else {
          *slot -= rhs.as_float();
        }
        *target = Value(v);
        return *target;
      }
      if (expr.op == "=") {
        // Preserve float-ness of the target when assigning ints to floats.
        if (target->is_float() && rhs.is_int()) rhs = make_float(rhs.as_float());
        *target = std::move(rhs);
      } else {
        const std::string base_op = expr.op == "+=" ? "+" : "-";
        if (target->is_string() || rhs.is_string()) {
          if (base_op != "+") throw LslError("strings only support +=", expr.line, 0);
          *target = Value(target->to_string() + rhs.to_string());
        } else if (target->is_vector()) {
          *target = base_op == "+" ? Value(target->as_vector() + rhs.as_vector())
                                   : Value(target->as_vector() - rhs.as_vector());
        } else if (target->is_list()) {
          if (base_op != "+") throw LslError("lists only support +=", expr.line, 0);
          List out = target->as_list();
          if (rhs.is_list()) {
            const List& other = rhs.as_list();
            out.insert(out.end(), other.begin(), other.end());
          } else {
            out.push_back(rhs);
          }
          *target = Value(std::move(out));
        } else {
          *target = numeric_binop(base_op, *target, rhs, expr.line);
        }
      }
      return *target;
    }
    case ExprKind::kCast: {
      const Value v = eval(*expr.children[0]);
      switch (expr.cast_type) {
        case LslType::kInteger:
          if (v.is_string()) {
            try {
              return make_int(std::stoll(v.as_string()));
            } catch (...) {
              return make_int(0);
            }
          }
          return make_int(v.as_int());
        case LslType::kFloat:
          if (v.is_string()) {
            try {
              return make_float(std::stod(v.as_string()));
            } catch (...) {
              return make_float(0.0);
            }
          }
          return make_float(v.as_float());
        case LslType::kString:
        case LslType::kKey:
          return Value(v.to_string());
        case LslType::kList:
          if (v.is_list()) return v;
          return Value(List{v});
        case LslType::kVector:
          if (v.is_vector()) return v;
          throw LslError("cannot cast to vector", expr.line, 0);
        case LslType::kVoid:
          break;
      }
      throw LslError("unsupported cast", expr.line, 0);
    }
    case ExprKind::kCall: {
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const auto& child : expr.children) args.push_back(eval(*child));
      return call_function(expr.name, std::move(args), expr.line);
    }
  }
  throw LslError("unreachable expression kind", expr.line, 0);
}

Value Interpreter::call_function(const std::string& name, std::vector<Value> args,
                                 int line) {
  bool handled = false;
  Value builtin_result = call_builtin(name, args, line, handled);
  if (handled) return builtin_result;

  for (const auto& fn : script_.functions) {
    if (fn.name != name) continue;
    if (fn.params.size() != args.size()) {
      throw LslError("function '" + name + "' argument count mismatch", line, 0);
    }
    if (++call_depth_ > 64) {
      --call_depth_;
      throw LslError("call depth exceeded", line, 0);
    }
    // Fresh scope stack for the callee (no access to caller locals).
    std::vector<Scope> saved = std::move(locals_);
    locals_.clear();
    locals_.push_back({});
    for (std::size_t i = 0; i < args.size(); ++i) {
      locals_.back().vars[fn.params[i].second] = std::move(args[i]);
    }
    return_value_ = Value();
    exec_block(fn.body);
    Value result = std::move(return_value_);
    locals_ = std::move(saved);
    --call_depth_;
    if (fn.return_type == LslType::kFloat && result.is_int()) {
      result = make_float(result.as_float());
    }
    return result;
  }
  throw LslError("unknown function '" + name + "'", line, 0);
}

Value Interpreter::call_builtin(const std::string& name, std::vector<Value>& args,
                                int line, bool& handled) {
  handled = true;
  const auto need = [&](std::size_t n) {
    if (args.size() != n) {
      throw LslError("builtin '" + name + "' expects " + std::to_string(n) + " args", line,
                     0);
    }
  };

  // --- world-facing builtins (host) ---------------------------------------
  if (name == "llSay") {
    need(2);
    host_.ll_say(args[0].as_int(), args[1].to_string());
    return Value();
  }
  if (name == "llOwnerSay") {
    need(1);
    host_.ll_owner_say(args[0].to_string());
    return Value();
  }
  if (name == "llSetTimerEvent") {
    need(1);
    host_.ll_set_timer_event(args[0].as_float());
    return Value();
  }
  if (name == "llSensorRepeat") {
    need(6);
    host_.ll_sensor_repeat(args[0].to_string(), args[1].to_string(), args[2].as_int(),
                           args[3].as_float(), args[4].as_float(), args[5].as_float());
    return Value();
  }
  if (name == "llGetPos") {
    need(0);
    return Value(host_.ll_get_pos());
  }
  if (name == "llGetKey") {
    need(0);
    return Value(host_.ll_get_key());
  }
  if (name == "llGetTime") {
    need(0);
    return make_float(host_.ll_get_time());
  }
  if (name == "llGetUnixTime") {
    need(0);
    return make_int(host_.ll_get_unix_time());
  }
  if (name == "llFrand") {
    need(1);
    return make_float(host_.ll_frand(args[0].as_float()));
  }
  if (name == "llHTTPRequest") {
    need(3);
    return Value(host_.ll_http_request(args[0].to_string(), args[1].as_list(),
                                       args[2].to_string()));
  }
  if (name == "llGetFreeMemory") {
    need(0);
    return make_int(host_.ll_get_free_memory());
  }
  if (name == "llDetectedPos") {
    need(1);
    const auto i = static_cast<std::size_t>(args[0].as_int());
    if (i >= host_.detected_count()) throw LslError("llDetectedPos: index out of range", line, 0);
    return Value(host_.detected_pos(i));
  }
  if (name == "llDetectedKey") {
    need(1);
    const auto i = static_cast<std::size_t>(args[0].as_int());
    if (i >= host_.detected_count()) throw LslError("llDetectedKey: index out of range", line, 0);
    return Value(host_.detected_key(i));
  }
  if (name == "llDetectedName") {
    need(1);
    const auto i = static_cast<std::size_t>(args[0].as_int());
    if (i >= host_.detected_count()) throw LslError("llDetectedName: index out of range", line, 0);
    return Value(host_.detected_name(i));
  }

  // --- pure builtins -------------------------------------------------------
  if (name == "llFloor") {
    need(1);
    return make_int(static_cast<std::int64_t>(std::floor(args[0].as_float())));
  }
  if (name == "llCeil") {
    need(1);
    return make_int(static_cast<std::int64_t>(std::ceil(args[0].as_float())));
  }
  if (name == "llRound") {
    need(1);
    return make_int(static_cast<std::int64_t>(std::llround(args[0].as_float())));
  }
  if (name == "llAbs") {
    need(1);
    return make_int(std::abs(args[0].as_int()));
  }
  if (name == "llFabs") {
    need(1);
    return make_float(std::fabs(args[0].as_float()));
  }
  if (name == "llSqrt") {
    need(1);
    return make_float(std::sqrt(args[0].as_float()));
  }
  if (name == "llPow") {
    need(2);
    return make_float(std::pow(args[0].as_float(), args[1].as_float()));
  }
  if (name == "llVecMag") {
    need(1);
    return make_float(args[0].as_vector().norm());
  }
  if (name == "llVecDist") {
    need(2);
    return make_float(args[0].as_vector().distance_to(args[1].as_vector()));
  }
  if (name == "llStringLength") {
    need(1);
    return make_int(static_cast<std::int64_t>(args[0].as_string().size()));
  }
  if (name == "llGetSubString") {
    need(3);
    const std::string& s = args[0].as_string();
    auto start = args[1].as_int();
    auto end = args[2].as_int();
    const auto n = static_cast<std::int64_t>(s.size());
    if (start < 0) start += n;
    if (end < 0) end += n;
    start = std::clamp<std::int64_t>(start, 0, n);
    end = std::clamp<std::int64_t>(end, -1, n - 1);
    if (end < start) return Value(std::string{});
    return Value(s.substr(static_cast<std::size_t>(start),
                          static_cast<std::size_t>(end - start + 1)));
  }
  if (name == "llSubStringIndex") {
    need(2);
    const auto pos = args[0].as_string().find(args[1].as_string());
    return make_int(pos == std::string::npos ? -1 : static_cast<std::int64_t>(pos));
  }
  if (name == "llGetListLength") {
    need(1);
    return make_int(static_cast<std::int64_t>(args[0].as_list().size()));
  }
  if (name == "llList2String") {
    need(2);
    const List& list = args[0].as_list();
    auto i = args[1].as_int();
    if (i < 0) i += static_cast<std::int64_t>(list.size());
    if (i < 0 || i >= static_cast<std::int64_t>(list.size())) return Value(std::string{});
    return Value(list[static_cast<std::size_t>(i)].to_string());
  }
  if (name == "llDumpList2String") {
    need(2);
    const List& list = args[0].as_list();
    const std::string& sep = args[1].as_string();
    std::string out;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out += sep;
      out += list[i].to_string();
    }
    return Value(std::move(out));
  }
  if (name == "llList2Integer") {
    need(2);
    const List& list = args[0].as_list();
    auto i = args[1].as_int();
    if (i < 0) i += static_cast<std::int64_t>(list.size());
    if (i < 0 || i >= static_cast<std::int64_t>(list.size())) return make_int(0);
    const Value& v = list[static_cast<std::size_t>(i)];
    if (v.is_int() || v.is_float()) return make_int(v.as_int());
    if (v.is_string()) {
      try {
        return make_int(std::stoll(v.as_string()));
      } catch (...) {
        return make_int(0);
      }
    }
    return make_int(0);
  }
  if (name == "llList2Float") {
    need(2);
    const List& list = args[0].as_list();
    auto i = args[1].as_int();
    if (i < 0) i += static_cast<std::int64_t>(list.size());
    if (i < 0 || i >= static_cast<std::int64_t>(list.size())) return make_float(0.0);
    const Value& v = list[static_cast<std::size_t>(i)];
    if (v.is_int() || v.is_float()) return make_float(v.as_float());
    if (v.is_string()) {
      try {
        return make_float(std::stod(v.as_string()));
      } catch (...) {
        return make_float(0.0);
      }
    }
    return make_float(0.0);
  }
  if (name == "llListSort") {
    need(3);
    List list = args[0].as_list();
    const auto stride = std::max<std::int64_t>(args[1].as_int(), 1);
    const bool ascending = args[2].as_int() != 0;
    if (list.size() % static_cast<std::size_t>(stride) != 0) return Value(std::move(list));
    // Sort stride-sized blocks by their first element (numeric or string).
    std::vector<List> blocks;
    for (std::size_t i = 0; i < list.size(); i += static_cast<std::size_t>(stride)) {
      blocks.emplace_back(list.begin() + static_cast<std::ptrdiff_t>(i),
                          list.begin() + static_cast<std::ptrdiff_t>(i + static_cast<std::size_t>(stride)));
    }
    std::stable_sort(blocks.begin(), blocks.end(), [&](const List& a, const List& b) {
      const Value& x = a.front();
      const Value& y = b.front();
      bool less = false;
      if (x.is_string() && y.is_string()) {
        less = x.as_string() < y.as_string();
      } else {
        less = x.as_float() < y.as_float();
      }
      return ascending ? less : !less;
    });
    List out;
    for (auto& block : blocks) {
      for (auto& v : block) out.push_back(std::move(v));
    }
    return Value(std::move(out));
  }
  if (name == "llListFindList") {
    need(2);
    const List& haystack = args[0].as_list();
    const List& needle = args[1].as_list();
    if (needle.empty()) return make_int(0);
    if (needle.size() > haystack.size()) return make_int(-1);
    for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
      bool match = true;
      for (std::size_t j = 0; j < needle.size(); ++j) {
        if (haystack[i + j].to_string() != needle[j].to_string()) {
          match = false;
          break;
        }
      }
      if (match) return make_int(static_cast<std::int64_t>(i));
    }
    return make_int(-1);
  }
  if (name == "llParseString2List") {
    need(3);
    const std::string& src = args[0].as_string();
    const List& separators = args[1].as_list();
    // Spacers (arg 2) are kept as their own tokens.
    const List& spacers = args[2].as_list();
    List out;
    std::string current;
    std::size_t i = 0;
    const auto match_at = [&](const List& tokens) -> std::optional<std::string> {
      for (const auto& t : tokens) {
        const std::string text = t.to_string();
        if (!text.empty() && src.compare(i, text.size(), text) == 0) return text;
      }
      return std::nullopt;
    };
    while (i < src.size()) {
      if (const auto sep = match_at(separators)) {
        if (!current.empty()) out.push_back(Value(std::move(current)));
        current.clear();
        i += sep->size();
      } else if (const auto spacer = match_at(spacers)) {
        if (!current.empty()) out.push_back(Value(std::move(current)));
        current.clear();
        out.push_back(Value(*spacer));
        i += spacer->size();
      } else {
        current.push_back(src[i++]);
      }
    }
    if (!current.empty()) out.push_back(Value(std::move(current)));
    return Value(std::move(out));
  }
  if (name == "llCSV2List") {
    need(1);
    const std::string& src = args[0].as_string();
    List out;
    std::string current;
    for (const char c : src) {
      if (c == ',') {
        out.push_back(Value(current));
        current.clear();
        // LSL skips one space after a comma.
      } else if (c == ' ' && !out.empty() && current.empty()) {
        continue;
      } else {
        current.push_back(c);
      }
    }
    out.push_back(Value(std::move(current)));
    return Value(std::move(out));
  }
  if (name == "llList2CSV") {
    need(1);
    const List& list = args[0].as_list();
    std::string out;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out += ", ";
      out += list[i].to_string();
    }
    return Value(std::move(out));
  }
  if (name == "llToUpper" || name == "llToLower") {
    need(1);
    std::string s = args[0].as_string();
    for (char& c : s) {
      c = name == "llToUpper" ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                              : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return Value(std::move(s));
  }
  if (name == "llStringTrim") {
    need(2);
    std::string s = args[0].as_string();
    const auto type = args[1].as_int();  // 1 head, 2 tail, 3 both
    if ((type & 1) != 0) {
      const auto begin = s.find_first_not_of(" \t\n\r");
      s.erase(0, begin == std::string::npos ? s.size() : begin);
    }
    if ((type & 2) != 0) {
      const auto end = s.find_last_not_of(" \t\n\r");
      s.erase(end == std::string::npos ? 0 : end + 1);
    }
    return Value(std::move(s));
  }
  if (name == "llInsertString") {
    need(3);
    std::string dst = args[0].as_string();
    const auto pos = std::clamp<std::int64_t>(args[1].as_int(), 0,
                                              static_cast<std::int64_t>(dst.size()));
    dst.insert(static_cast<std::size_t>(pos), args[2].as_string());
    return Value(std::move(dst));
  }
  if (name == "llDeleteSubString") {
    need(3);
    const std::string& s = args[0].as_string();
    const auto n = static_cast<std::int64_t>(s.size());
    auto start = args[1].as_int();
    auto end = args[2].as_int();
    if (start < 0) start += n;
    if (end < 0) end += n;
    start = std::clamp<std::int64_t>(start, 0, n);
    end = std::clamp<std::int64_t>(end, -1, n - 1);
    if (end < start) return Value(s);
    return Value(s.substr(0, static_cast<std::size_t>(start)) +
                 s.substr(static_cast<std::size_t>(end + 1)));
  }

  handled = false;
  return Value();
}

}  // namespace slmob::lsl
