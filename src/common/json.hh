/**
 * @file
 * Minimal JSON reading and writing shared by every tango serialization
 * surface: the rt::Engine disk spill (runtime/run_cache), the JobSpec /
 * JobResult wire format (runtime/job) and the tango-serve framed
 * protocol (serve/protocol).
 *
 * The writer is a handful of append helpers over std::string — doubles
 * are written with 17 significant digits so every value round-trips
 * bit-exactly.  The reader is a small recursive-descent parser.  Its
 * pull primitives (peek/next/expect/string/stringView/number/members/
 * elements/value) are public so a caller can decode a document straight
 * from the text in one pass, with no Value tree: rt::readNetRun does this
 * for result frames, spill files and golden fixtures, and the run cache
 * uses it to salvage the valid prefix of a damaged file.  value() builds
 * a tree for small documents and skips unknown fields.  It reads
 * untrusted network frames, so nesting is capped (kMaxDepth) and numbers
 * a double cannot hold are refused rather than saturated.
 */

#ifndef TANGO_COMMON_JSON_HH
#define TANGO_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tango::json {

/** Append @p s as a quoted, escaped JSON string. */
void appendEscaped(std::string &out, const std::string &s);

/** Append @p v with 17 significant digits (exact double round trip):
 *  the bytes of printf's "%.17g", including "inf", "-inf", "nan" and
 *  "-nan", which the Reader reads back. */
void appendDouble(std::string &out, double v);

/** Append @p v as a decimal integer. */
void appendU64(std::string &out, uint64_t v);

/** Emits `"name":value` sequences inside one JSON object. */
class ObjWriter
{
  public:
    explicit ObjWriter(std::string &out) : out_(out) { out_ += '{'; }
    void close() { out_ += '}'; }

    void key(const char *name)
    {
        if (!first_)
            out_ += ',';
        first_ = false;
        // Escape: keys are usually literals, but metric series ids
        // carry quoted label values (name{k="v"}).
        appendEscaped(out_, name);
        out_ += ':';
    }
    void num(const char *name, double v) { key(name); appendDouble(out_, v); }
    void u64(const char *name, uint64_t v) { key(name); appendU64(out_, v); }
    void boolean(const char *name, bool v)
    {
        key(name);
        out_ += v ? "true" : "false";
    }
    void str(const char *name, const std::string &v)
    {
        key(name);
        appendEscaped(out_, v);
    }
    /** A field whose value is already-serialized JSON. */
    void raw(const char *name, const std::string &json)
    {
        key(name);
        out_ += json;
    }

  private:
    std::string &out_;
    bool first_ = true;
};

/** @p d as a uint64_t.  Non-integral values truncate; values no
 *  uint64_t holds (negative, >= 2^64, nan) yield @p dflt. */
inline uint64_t
toU64(double d, uint64_t dflt = 0)
{
    return d >= 0.0 && d < 18446744073709551616.0 ? static_cast<uint64_t>(d)
                                                  : dflt;
}

/** A recursive-descent JSON reader over an in-memory buffer.
 *  Parse errors throw std::runtime_error. */
class Reader
{
  public:
    /** Deepest array/object nesting value() accepts.  Each level is a
     *  recursion, so an unbounded run of '[' would overflow the stack;
     *  real documents (a NetRun) nest about six deep. */
    static constexpr unsigned kMaxDepth = 256;

    struct Value
    {
        enum class Kind { Null, Bool, Num, Str, Arr, Obj } kind = Kind::Null;
        bool b = false;
        double num = 0.0;
        std::string str;
        std::vector<Value> arr;
        std::vector<std::pair<std::string, Value>> obj;

        /** The member @p key; the last one when a key repeats. */
        const Value *find(const char *key) const
        {
            for (auto it = obj.rbegin(); it != obj.rend(); ++it) {
                if (it->first == key)
                    return &it->second;
            }
            return nullptr;
        }
        double numOr(const char *key, double dflt = 0.0) const
        {
            const Value *v = find(key);
            return v && v->kind == Kind::Num ? v->num : dflt;
        }
        /** See toU64(). */
        uint64_t u64Or(const char *key, uint64_t dflt = 0) const
        {
            return toU64(numOr(key, double(dflt)), dflt);
        }
        bool boolOr(const char *key, bool dflt = false) const
        {
            const Value *v = find(key);
            return v && v->kind == Kind::Bool ? v->b : dflt;
        }
        std::string strOr(const char *key) const
        {
            const Value *v = find(key);
            return v && v->kind == Kind::Str ? v->str : std::string();
        }
    };

    explicit Reader(const std::string &text) : s_(text) {}

    /** Parse the whole buffer as one document (no trailing bytes). */
    Value parse()
    {
        Value v = value();
        end();
        return v;
    }

    /** Require that nothing but whitespace is left. */
    void end()
    {
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters");
    }

    char peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end");
        return s_[pos_];
    }
    char next()
    {
        const char c = peek();
        pos_++;
        return c;
    }
    void expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        pos_++;
    }

    std::string string();

    /** A string token (an object key) as a view into the buffer, or,
     *  only when it has an escape, into @p scratch via string().  The
     *  view is valid until @p scratch next changes. */
    std::string_view stringView(std::string &scratch);

    /** A number token (including "inf"/"nan", which appendDouble
     *  writes).  Anything else fails with "bad number". */
    double number();

    /**
     * Walk the object at the cursor: for each member call
     * @p onKey(key), which must consume the member's value.  @p key
     * stays valid for the whole call.  A key that repeats is simply
     * seen again, so a caller that assigns gets "last one wins".
     */
    template <class F>
    void members(F &&onKey)
    {
        expect('{');
        if (peek() == '}') {
            pos_++;
            return;
        }
        std::string scratch;
        for (;;) {
            const std::string_view key = stringView(scratch);
            expect(':');
            onKey(key);
            const char n = next();
            if (n == '}')
                return;
            if (n != ',')
                fail("expected , or }");
        }
    }

    /** Walk the array at the cursor, calling @p onElement() once per
     *  element; it must consume the element. */
    template <class F>
    void elements(F &&onElement)
    {
        expect('[');
        if (peek() == ']') {
            pos_++;
            return;
        }
        for (;;) {
            onElement();
            const char n = next();
            if (n == ']')
                return;
            if (n != ',')
                fail("expected , or ]");
        }
    }

    Value value();

  private:
    [[noreturn]] void fail(const char *what);

    /** Index of the next '"' or '\\' at or after pos_, or npos.  A
     *  plain loop: find_first_of calls memchr once per character. */
    size_t quoteOrEscape() const
    {
        for (size_t i = pos_; i < s_.size(); i++) {
            if (s_[i] == '"' || s_[i] == '\\')
                return i;
        }
        return std::string::npos;
    }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            pos_++;
    }

    const std::string &s_;
    size_t pos_ = 0;
    unsigned depth_ = 0;   ///< arrays/objects value() is inside
};

} // namespace tango::json

#endif // TANGO_COMMON_JSON_HH
