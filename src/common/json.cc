#include "common/json.hh"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace tango::json {

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendDouble(std::string &out, double v)
{
    char buf[32];
    // 17 significant digits round-trip any IEEE-754 double exactly;
    // general format gives the same bytes as printf("%.17g").
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

void
appendU64(std::string &out, uint64_t v)
{
    char buf[20];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

std::string
Reader::string()
{
    expect('"');
    std::string out;
    for (;;) {
        // Copy the run up to the next quote or escape in one append.
        const size_t stop = quoteOrEscape();
        if (stop == std::string::npos) {
            pos_ = s_.size();
            fail("unterminated string");
        }
        out.append(s_, pos_, stop - pos_);
        pos_ = stop + 1;
        if (s_[stop] == '"')
            return out;
        if (pos_ >= s_.size())
            fail("bad escape");
        switch (s_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
            // Exactly four hex digits: no sign, no spaces, no fewer.
            unsigned cp = 0;
            const char *hex = s_.data() + pos_;
            if (pos_ + 4 > s_.size() ||
                std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4)
                fail("bad \\u escape");
            pos_ += 4;
            // Tango strings are ASCII; anything else is replaced.
            out += cp < 0x80 ? static_cast<char>(cp) : '?';
            break;
        }
        default: fail("bad escape");
        }
    }
}

std::string_view
Reader::stringView(std::string &scratch)
{
    expect('"');
    const size_t stop = quoteOrEscape();
    if (stop != std::string::npos && s_[stop] == '"') {
        const std::string_view out(s_.data() + pos_, stop - pos_);
        pos_ = stop + 1;
        return out;
    }
    pos_--;   // an escape (or no end): let string() decode it
    scratch = string();
    return scratch;
}

double
Reader::number()
{
    skipWs();
    // Fast path: most numbers are counters, plain integers.  Up to 15
    // digits are below 2^53, so the double is exact, as from_chars'.
    size_t i = pos_ + (pos_ < s_.size() && s_[pos_] == '-');
    const size_t first = i;
    uint64_t n = 0;
    while (i < s_.size() && i - first < 16 && s_[i] >= '0' && s_[i] <= '9')
        n = n * 10 + static_cast<uint64_t>(s_[i++] - '0');
    if (i > first && i - first < 16 &&
        (i == s_.size() || (s_[i] != '.' && s_[i] != 'e' && s_[i] != 'E'))) {
        const bool neg = first != pos_;
        pos_ = i;
        return neg ? -static_cast<double>(n) : static_cast<double>(n);
    }

    double v = 0.0;
    const char *start = s_.data() + pos_;
    const auto r = std::from_chars(start, s_.data() + s_.size(), v);
    if (r.ec == std::errc::result_out_of_range)
        fail("number out of range");
    if (r.ec != std::errc())
        fail("bad number");
    pos_ += static_cast<size_t>(r.ptr - start);
    return v;
}

Reader::Value
Reader::value()
{
    const char c = peek();
    Value v;
    if (c == '{' || c == '[') {
        if (depth_ == kMaxDepth)
            fail("nesting too deep");
        depth_++;
        if (c == '{') {
            v.kind = Value::Kind::Obj;
            members([&](std::string_view key) {
                v.obj.emplace_back(std::string(key), value());
            });
        } else {
            v.kind = Value::Kind::Arr;
            elements([&] { v.arr.push_back(value()); });
        }
        depth_--;
        return v;
    }
    if (c == '"') {
        v.kind = Value::Kind::Str;
        v.str = string();
        return v;
    }
    // "nan" (appendDouble's spelling of a positive NaN) is a number.
    if (c == 't' || c == 'f' || (c == 'n' && s_.compare(pos_, 3, "nan"))) {
        const char *word = c == 't' ? "true" : c == 'f' ? "false" : "null";
        const size_t len = std::strlen(word);
        if (s_.compare(pos_, len, word) != 0)
            fail("bad literal");
        pos_ += len;
        v.kind = c == 'n' ? Value::Kind::Null : Value::Kind::Bool;
        v.b = c == 't';
        return v;
    }
    v.num = number();
    v.kind = Value::Kind::Num;
    return v;
}

void
Reader::fail(const char *what)
{
    throw std::runtime_error(std::string("json: ") + what + " at " +
                             std::to_string(pos_));
}

} // namespace tango::json
