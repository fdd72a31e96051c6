#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/check.h"

namespace neo::json {

std::string
number_to_string(double v)
{
    NEO_CHECK(std::isfinite(v), "JSON cannot represent NaN/Inf");
    // Integers up to 2^53 print without an exponent so counters stay
    // human-readable; everything else uses the shortest round-trip
    // form from std::to_chars.
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    NEO_ASSERT(ec == std::errc{}, "to_chars failed");
    return std::string(buf, ptr);
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
    return out;
}

// --------------------------------------------------------------- Writer

void
Writer::indent()
{
    out_ << '\n';
    for (size_t i = 0; i < stack_.size(); ++i)
        out_ << "  ";
}

void
Writer::before_item(bool is_key)
{
    if (key_pending_) {
        NEO_ASSERT(!is_key, "json::Writer: key() after key()");
        key_pending_ = false;
        return; // value follows "key": on the same line
    }
    if (!stack_.empty()) {
        NEO_ASSERT(is_key == (stack_.back() == Ctx::object),
                   "json::Writer: bare value in object / key in array");
        if (!first_.back())
            out_ << ',';
        first_.back() = false;
        indent();
    } else {
        NEO_ASSERT(out_.tellp() == 0,
                   "json::Writer: multiple top-level values");
    }
}

Writer &
Writer::begin_object()
{
    before_item(false);
    out_ << '{';
    stack_.push_back(Ctx::object);
    first_.push_back(true);
    return *this;
}

Writer &
Writer::end_object()
{
    NEO_ASSERT(!stack_.empty() && stack_.back() == Ctx::object &&
                   !key_pending_,
               "json::Writer: mismatched end_object");
    bool empty = first_.back();
    stack_.pop_back();
    first_.pop_back();
    if (!empty)
        indent();
    out_ << '}';
    return *this;
}

Writer &
Writer::begin_array()
{
    before_item(false);
    out_ << '[';
    stack_.push_back(Ctx::array);
    first_.push_back(true);
    return *this;
}

Writer &
Writer::end_array()
{
    NEO_ASSERT(!stack_.empty() && stack_.back() == Ctx::array,
               "json::Writer: mismatched end_array");
    bool empty = first_.back();
    stack_.pop_back();
    first_.pop_back();
    if (!empty)
        indent();
    out_ << ']';
    return *this;
}

Writer &
Writer::key(std::string_view k)
{
    NEO_ASSERT(!stack_.empty() && stack_.back() == Ctx::object,
               "json::Writer: key() outside object");
    before_item(true);
    out_ << escape(k) << ": ";
    key_pending_ = true;
    return *this;
}

Writer &
Writer::value(std::string_view v)
{
    before_item(false);
    out_ << escape(v);
    return *this;
}

Writer &
Writer::value(double v)
{
    before_item(false);
    out_ << number_to_string(v);
    return *this;
}

Writer &
Writer::value(u64 v)
{
    before_item(false);
    out_ << v;
    return *this;
}

Writer &
Writer::value(bool v)
{
    before_item(false);
    out_ << (v ? "true" : "false");
    return *this;
}

Writer &
Writer::null()
{
    before_item(false);
    out_ << "null";
    return *this;
}

std::string
Writer::str() const
{
    NEO_ASSERT(stack_.empty() && !key_pending_,
               "json::Writer: document not closed");
    return out_.str();
}

void
Writer::write_file(const std::string &path) const
{
    std::ofstream f(path);
    NEO_CHECK(f.good(), "cannot open " + path + " for writing");
    f << str() << '\n';
}

// ---------------------------------------------------------------- Value

Value
Value::make_bool(bool b)
{
    Value v;
    v.type_ = Type::boolean;
    v.bool_ = b;
    return v;
}

Value
Value::make_number(double n)
{
    Value v;
    v.type_ = Type::number;
    v.num_ = n;
    return v;
}

Value
Value::make_string(std::string s)
{
    Value v;
    v.type_ = Type::string;
    v.str_ = std::move(s);
    return v;
}

Value
Value::make_array(std::vector<Value> a)
{
    Value v;
    v.type_ = Type::array;
    v.arr_ = std::move(a);
    return v;
}

Value
Value::make_object(std::vector<std::pair<std::string, Value>> m)
{
    Value v;
    v.type_ = Type::object;
    v.obj_ = std::move(m);
    return v;
}

bool
Value::as_bool() const
{
    NEO_CHECK(type_ == Type::boolean, "JSON value is not a boolean");
    return bool_;
}

double
Value::as_number() const
{
    NEO_CHECK(type_ == Type::number, "JSON value is not a number");
    return num_;
}

const std::string &
Value::as_string() const
{
    NEO_CHECK(type_ == Type::string, "JSON value is not a string");
    return str_;
}

const std::vector<Value> &
Value::as_array() const
{
    NEO_CHECK(type_ == Type::array, "JSON value is not an array");
    return arr_;
}

const std::vector<std::pair<std::string, Value>> &
Value::as_object() const
{
    NEO_CHECK(type_ == Type::object, "JSON value is not an object");
    return obj_;
}

const Value *
Value::find(std::string_view key) const
{
    if (type_ != Type::object)
        return nullptr;
    for (const auto &[k, v] : obj_)
        if (k == key)
            return &v;
    return nullptr;
}

const Value &
Value::at(std::string_view key) const
{
    const Value *v = find(key);
    NEO_CHECK(v != nullptr, "missing JSON key: " + std::string(key));
    return *v;
}

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value parse_document()
    {
        Value v = parse_value();
        skip_ws();
        NEO_CHECK(pos_ == text_.size(),
                  "trailing characters after JSON document at byte " +
                      std::to_string(pos_));
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &what)
    {
        NEO_CHECK(false,
                  "JSON parse error at byte " + std::to_string(pos_) + ": " +
                      what);
        std::abort(); // unreachable; NEO_CHECK(false) throws
    }

    void skip_ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    Value parse_value()
    {
        skip_ws();
        switch (peek()) {
        case '{':
        case '[': {
            if (depth_ == kMaxDepth)
                fail("nesting deeper than " + std::to_string(kMaxDepth));
            ++depth_;
            Value v = peek() == '{' ? parse_object() : parse_array();
            --depth_;
            return v;
        }
        case '"': return Value::make_string(parse_string());
        case 't':
            if (consume_literal("true"))
                return Value::make_bool(true);
            fail("bad literal");
        case 'f':
            if (consume_literal("false"))
                return Value::make_bool(false);
            fail("bad literal");
        case 'n':
            if (consume_literal("null"))
                return Value();
            fail("bad literal");
        default: return parse_number();
        }
    }

    Value parse_object()
    {
        expect('{');
        std::vector<std::pair<std::string, Value>> members;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return Value::make_object(std::move(members));
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            members.emplace_back(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return Value::make_object(std::move(members));
        }
    }

    Value parse_array()
    {
        expect('[');
        std::vector<Value> items;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return Value::make_array(std::move(items));
        }
        while (true) {
            items.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return Value::make_array(std::move(items));
        }
    }

    std::string parse_string()
    {
        expect('"');
        std::string out;
        while (true) {
            char c = peek();
            ++pos_;
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            char esc = peek();
            ++pos_;
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                auto [p, ec] = std::from_chars(
                    text_.data() + pos_, text_.data() + pos_ + 4, cp, 16);
                if (ec != std::errc{} || p != text_.data() + pos_ + 4)
                    fail("bad \\u escape");
                pos_ += 4;
                // Artifacts we emit only escape control chars; encode
                // the BMP code point as UTF-8 (no surrogate pairing).
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
                    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                } else {
                    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
                    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                }
                break;
            }
            default: fail("unknown escape");
            }
        }
    }

    Value parse_number()
    {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        double v = 0;
        auto [p, ec] =
            std::from_chars(text_.data() + start, text_.data() + pos_, v);
        if (ec != std::errc{} || p != text_.data() + pos_ || pos_ == start)
            fail("bad number");
        return Value::make_number(v);
    }

    std::string_view text_;
    size_t pos_ = 0;
    size_t depth_ = 0; ///< arrays/objects open at pos_
};

} // namespace

Value
Value::parse(std::string_view text)
{
    return Parser(text).parse_document();
}

Value
Value::parse_file(const std::string &path)
{
    std::ifstream f(path);
    NEO_CHECK(f.good(), "cannot open " + path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return parse(ss.str());
}

} // namespace neo::json
