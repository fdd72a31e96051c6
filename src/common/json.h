/**
 * @file
 * Minimal JSON support shared by the bench harness, the profiler and
 * their tests: a streaming writer for emitting schema-versioned
 * artifacts (`BENCH_*.json`, trace exports) and a small
 * recursive-descent reader for loading them back (baseline compare,
 * golden-file tests).
 *
 * Deliberately tiny — objects, arrays, strings, numbers, booleans,
 * null. Numbers round-trip via std::to_chars (shortest form that
 * parses back to the same double), so artifacts diff cleanly and
 * golden files are stable across runs.
 */
#pragma once

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace neo::json {

/// Shortest decimal string that parses back to exactly `v`.
std::string number_to_string(double v);

/// JSON string literal (quotes + escapes) for `s`.
std::string escape(std::string_view s);

/**
 * Streaming JSON writer. Produces pretty-printed (2-space indented)
 * output; nesting is tracked so commas and indentation are automatic:
 *
 *   Writer w;
 *   w.begin_object();
 *   w.key("schema").value("neo.bench/1");
 *   w.key("kernels").begin_array();
 *   ... w.end_array();
 *   w.end_object();
 *   w.str();  // or w.write_file(path)
 *
 * Misuse (value without a key inside an object, unbalanced end_*)
 * throws std::logic_error via NEO_ASSERT.
 */
class Writer
{
  public:
    Writer &begin_object();
    Writer &end_object();
    Writer &begin_array();
    Writer &end_array();
    /// Start a key/value pair inside an object.
    Writer &key(std::string_view k);

    Writer &value(std::string_view v);
    Writer &value(const char *v) { return value(std::string_view(v)); }
    Writer &value(double v);
    Writer &value(u64 v);
    Writer &value(int v) { return value(static_cast<u64>(v)); }
    Writer &value(bool v);
    Writer &null();

    /// The finished document; asserts all containers are closed.
    std::string str() const;
    /// Write the finished document (plus trailing newline) to `path`.
    void write_file(const std::string &path) const;

  private:
    enum class Ctx { object, array };
    void before_item(bool is_key);
    void indent();

    std::ostringstream out_;
    std::vector<Ctx> stack_;
    std::vector<bool> first_;  // first item at each nesting level?
    bool key_pending_ = false; // key() emitted, awaiting its value
};

/// Deepest array/object nesting Value::parse accepts. The parser
/// recurses once per level, so the cap bounds its stack; the
/// project's artifacts nest 4 levels deep.
inline constexpr size_t kMaxDepth = 256;

/** Parsed JSON value (tree form). */
class Value
{
  public:
    enum class Type { null, boolean, number, string, array, object };

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::null; }
    bool is_object() const { return type_ == Type::object; }
    bool is_array() const { return type_ == Type::array; }
    bool is_number() const { return type_ == Type::number; }
    bool is_string() const { return type_ == Type::string; }

    /// Throws NEO_CHECK failure on type mismatch.
    bool as_bool() const;
    double as_number() const;
    const std::string &as_string() const;
    const std::vector<Value> &as_array() const;
    /// Key order of the source document is preserved.
    const std::vector<std::pair<std::string, Value>> &as_object() const;

    /// Object member lookup; nullptr when absent or not an object.
    const Value *find(std::string_view key) const;
    /// Object member lookup; throws when absent.
    const Value &at(std::string_view key) const;

    /**
     * Parse a complete JSON document. Throws std::invalid_argument
     * (via NEO_CHECK) on syntax errors, with byte offset, and on
     * nesting deeper than kMaxDepth.
     */
    static Value parse(std::string_view text);
    /// Parse the contents of `path`; throws if unreadable.
    static Value parse_file(const std::string &path);

    // -- construction (used by parse; handy in tests) ----------------
    Value() = default;
    static Value make_bool(bool b);
    static Value make_number(double n);
    static Value make_string(std::string s);
    static Value make_array(std::vector<Value> v);
    static Value make_object(std::vector<std::pair<std::string, Value>> m);

  private:
    Type type_ = Type::null;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;
};

} // namespace neo::json
