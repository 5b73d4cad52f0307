// Tree-walking interpreter for the LSL subset.
//
// The interpreter executes one script instance attached to one in-world
// object. World-facing built-ins (llSay, llSensorRepeat, llHTTPRequest, ...)
// are routed through an LslHost implemented by the embedding object
// (src/sensors/sensor_object.*). Pure built-ins (llFloor, llVecDist,
// string/list utilities) are evaluated in-place.
//
// Event model: the host calls fire_* when the corresponding in-world event
// occurs. Each event handler runs under an instruction budget so a buggy
// script cannot stall the simulation (real LSL throttles scripts the same
// way).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lsl/ast.hpp"
#include "lsl/lexer.hpp"
#include "lsl/value.hpp"

namespace slmob::lsl {

// World services available to a script. Detection accessors are only valid
// while a sensor event is being dispatched.
class LslHost {
 public:
  virtual ~LslHost() = default;

  virtual void ll_say(std::int64_t channel, const std::string& text) = 0;
  virtual void ll_owner_say(const std::string& text) = 0;
  virtual void ll_set_timer_event(double period_seconds) = 0;
  // Repeating proximity sweep: every `rate` seconds, detect up to 16 agents
  // within `range` metres (arc ignored: our sensors are omnidirectional).
  virtual void ll_sensor_repeat(const std::string& name, const std::string& key,
                                std::int64_t type, double range, double arc,
                                double rate) = 0;
  virtual slmob::Vec3 ll_get_pos() = 0;
  // The object's own key; defaulted so hosts without an identity need not
  // override. Sensor reports embed it so the collector can deduplicate
  // retried flushes per object.
  virtual std::string ll_get_key() { return "object-0"; }
  virtual double ll_get_time() = 0;           // seconds since script start
  virtual std::int64_t ll_get_unix_time() = 0;  // virtual epoch seconds
  virtual double ll_frand(double max) = 0;
  // Starts an HTTP request; returns the request key. The host later calls
  // fire_http_response with the same key.
  virtual std::string ll_http_request(const std::string& url, const List& params,
                                      const std::string& body) = 0;
  // Bytes of script memory still free (the 16 KB limit of the paper).
  virtual std::int64_t ll_get_free_memory() = 0;

  virtual std::size_t detected_count() const = 0;
  virtual slmob::Vec3 detected_pos(std::size_t i) const = 0;
  virtual std::string detected_key(std::size_t i) const = 0;
  virtual std::string detected_name(std::size_t i) const = 0;
};

class Interpreter {
 public:
  // Parses and binds the script; throws LslError on syntax errors.
  Interpreter(std::string_view source, LslHost& host);
  Interpreter(Script script, LslHost& host);

  // Enters the default state and runs its state_entry handler.
  void start();

  void fire_timer();
  void fire_sensor(std::int64_t detected);
  void fire_no_sensor();
  void fire_http_response(const std::string& request_key, std::int64_t status,
                          const std::string& body);

  [[nodiscard]] const std::string& current_state() const { return current_state_; }
  [[nodiscard]] bool has_handler(const std::string& event) const;
  // Global variable value (test/diagnostic access).
  [[nodiscard]] const Value* global(const std::string& name) const;
  // All globals (used by hosts for script-memory accounting).
  [[nodiscard]] const std::map<std::string, Value>& globals() const { return globals_; }
  void set_instruction_budget(std::uint64_t budget) { budget_per_event_ = budget; }

 private:
  enum class Flow { kNormal, kReturn, kStateChange };

  struct Scope {
    std::map<std::string, Value> vars;
  };

  void fire_event(const std::string& name, const std::vector<Value>& args);
  const StateDef& state_by_name(const std::string& name) const;

  Flow exec_block(const std::vector<StmtPtr>& stmts);
  Flow exec_stmt(const Stmt& stmt);
  Value eval(const Expr& expr);
  Value call_function(const std::string& name, std::vector<Value> args, int line);
  Value call_builtin(const std::string& name, std::vector<Value>& args, int line,
                     bool& handled);
  Value* find_var(const std::string& name);
  void charge(int line);

  Script script_;
  LslHost& host_;
  std::map<std::string, Value> globals_;
  std::vector<Scope> locals_;  // scope stack of the current call
  std::string current_state_{"default"};
  std::string pending_state_;
  Value return_value_;
  std::uint64_t budget_per_event_{500000};
  std::uint64_t ops_this_event_{0};
  bool started_{false};
  int call_depth_{0};
};

}  // namespace slmob::lsl
