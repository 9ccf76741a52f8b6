#include "jsonio.h"

#include <charconv>
#include <stdexcept>

namespace archgym {
namespace jsonio {

void
appendDouble(std::string &out, double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

std::string
escape(const std::string &s)
{
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto byte = static_cast<unsigned char>(c);
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (byte < 0x20) {
                out += "\\u00";
                out.push_back(kHex[byte >> 4]);
                out.push_back(kHex[byte & 0xf]);
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

bool
readString(const std::string &text, std::size_t &pos, std::string &out)
{
    if (pos >= text.size() || text[pos] != '"')
        return false;
    std::size_t p = pos + 1;
    std::string value;
    while (p < text.size() && text[p] != '"') {
        if (text[p] != '\\') {
            value.push_back(text[p++]);
            continue;
        }
        if (++p >= text.size())
            return false;
        switch (text[p++]) {
        case '"':
            value.push_back('"');
            break;
        case '\\':
            value.push_back('\\');
            break;
        case 'n':
            value.push_back('\n');
            break;
        case 'r':
            value.push_back('\r');
            break;
        case 't':
            value.push_back('\t');
            break;
        case 'u': {
            // escape() emits \u00XX for control bytes only.
            unsigned code = 0;
            if (p + 4 > text.size() || text.compare(p, 2, "00") != 0)
                return false;
            const auto res = std::from_chars(text.data() + p + 2,
                                             text.data() + p + 4, code, 16);
            if (res.ptr != text.data() + p + 4 || code >= 0x80)
                return false;
            value.push_back(static_cast<char>(code));
            p += 4;
            break;
        }
        default:
            return false;
        }
    }
    if (p >= text.size())
        return false;  // unterminated
    pos = p + 1;
    out = std::move(value);
    return true;
}

std::size_t
valuePos(const std::string &text, const std::string &key,
         const std::string &context, std::size_t from)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = text.find(needle, from);
    if (pos == std::string::npos)
        throw std::runtime_error(context + ": missing key '" + key + "'");
    return pos + needle.size();
}

double
doubleField(const std::string &text, const std::string &key,
            const std::string &context, std::size_t from)
{
    const std::size_t pos = valuePos(text, key, context, from);
    double value = 0.0;
    const char *begin = text.data() + pos;
    const auto res =
        std::from_chars(begin, text.data() + text.size(), value);
    if (res.ec != std::errc{})
        throw std::runtime_error(context + ": bad number for '" + key +
                                 "'");
    return value;
}

std::uint64_t
uintField(const std::string &text, const std::string &key,
          const std::string &context, std::size_t from)
{
    const std::size_t pos = valuePos(text, key, context, from);
    std::uint64_t value = 0;
    const char *begin = text.data() + pos;
    const auto res =
        std::from_chars(begin, text.data() + text.size(), value);
    if (res.ec != std::errc{})
        throw std::runtime_error(context + ": bad integer for '" + key +
                                 "'");
    return value;
}

std::string
stringField(const std::string &text, const std::string &key,
            const std::string &context, std::size_t from)
{
    std::size_t pos = valuePos(text, key, context, from);
    std::string out;
    if (!readString(text, pos, out))
        throw std::runtime_error(context + ": bad string for '" + key +
                                 "'");
    return out;
}

std::vector<double>
doubleArrayField(const std::string &text, const std::string &key,
                 const std::string &context, std::size_t from)
{
    std::size_t pos = valuePos(text, key, context, from);
    if (pos >= text.size() || text[pos] != '[')
        throw std::runtime_error(context + ": bad array for '" + key +
                                 "'");
    ++pos;
    std::vector<double> out;
    while (pos < text.size() && text[pos] != ']') {
        double value = 0.0;
        const auto res = std::from_chars(text.data() + pos,
                                         text.data() + text.size(), value);
        if (res.ec != std::errc{})
            throw std::runtime_error(context + ": bad array entry for '" +
                                     key + "'");
        out.push_back(value);
        pos = static_cast<std::size_t>(res.ptr - text.data());
        if (pos < text.size() && text[pos] == ',')
            ++pos;
    }
    return out;
}

std::vector<std::uint64_t>
uintArrayField(const std::string &text, const std::string &key,
               const std::string &context, std::size_t from)
{
    std::size_t pos = valuePos(text, key, context, from);
    if (pos >= text.size() || text[pos] != '[')
        throw std::runtime_error(context + ": bad array for '" + key +
                                 "'");
    ++pos;
    std::vector<std::uint64_t> out;
    while (pos < text.size() && text[pos] != ']') {
        std::uint64_t value = 0;
        const auto res = std::from_chars(text.data() + pos,
                                         text.data() + text.size(), value);
        if (res.ec != std::errc{})
            throw std::runtime_error(context + ": bad array entry for '" +
                                     key + "'");
        out.push_back(value);
        pos = static_cast<std::size_t>(res.ptr - text.data());
        if (pos < text.size() && text[pos] == ',')
            ++pos;
    }
    return out;
}

} // namespace jsonio
} // namespace archgym
