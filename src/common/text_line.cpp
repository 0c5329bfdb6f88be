#include "common/text_line.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/logging.hpp"

namespace rog {

namespace {

constexpr std::string_view kSpace = " \t\n\v\f\r";

template <typename T>
bool
fromChars(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    const auto r = std::from_chars(text.data(), end, out);
    return !text.empty() && r.ec == std::errc() && r.ptr == end;
}

} // namespace

bool
parseNumber(std::string_view text, double &out)
{
    if (!fromChars(text, out) || std::isnan(out))
        return false;
    // from_chars also takes "infinity" and any letter case; only the
    // spelling the writers emit is accepted. A subnormal reads back
    // bit for bit; only a value that rounds to zero is out of range.
    if (std::isinf(out))
        return text == "inf" || text == "-inf";
    return true;
}

void
appendNumber(std::string &out, double v, int precision)
{
    // %.17g needs at most 24 bytes: sign, 17 digits, point, e-308.
    ROG_ASSERT(precision >= 1 && precision <= 17, "precision ", precision);
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, precision);
    out.append(buf, r.ptr);
}

bool
parseNumber(std::string_view text, std::uint64_t &out)
{
    return fromChars(text, out);
}

bool
parseNumber(std::string_view text, std::int64_t &out)
{
    return fromChars(text, out);
}

TextLine::TextLine(std::string_view line, std::size_t line_no)
    : line_no_(line_no)
{
    std::size_t i = line.find_first_not_of(kSpace);
    while (i != std::string_view::npos) {
        std::size_t end = line.find_first_of(kSpace, i);
        if (end == std::string_view::npos)
            end = line.size();
        Token t;
        t.text = line.substr(i, end - i);
        const std::size_t eq = t.text.find('=');
        if (eq == 0)
            fail("expected key=value, got '" + std::string(t.text) + "'");
        if (eq != std::string_view::npos && eq > 0) {
            t.key = t.text.substr(0, eq);
            t.value = t.text.substr(eq + 1);
            if (!t.value.empty() && t.value.front() == '"') {
                // Quoted free text: up to the line's last quote, which
                // must be its last non-space character.
                const std::size_t open = i + eq + 1;
                const std::size_t close = line.find_last_of('"');
                if (close == open ||
                    close != line.find_last_not_of(kSpace)) {
                    fail("unterminated quoted value for '" +
                         std::string(t.key) + "'");
                    return;
                }
                t.text = line.substr(i, close + 1 - i);
                t.value = line.substr(open, close + 1 - open);
                end = close + 1;
            }
        }
        toks_.push_back(t);
        i = line.find_first_not_of(kSpace, end);
    }
}

void
TextLine::fail(const std::string &what)
{
    if (!error_.empty())
        return;
    error_ = line_no_ > 0
                 ? "line " + std::to_string(line_no_) + ": " + what
                 : what;
}

std::string_view
TextLine::peekKey() const
{
    return cursor_ < toks_.size() ? toks_[cursor_].key
                                  : std::string_view();
}

std::string_view
TextLine::word()
{
    if (cursor_ >= toks_.size()) {
        fail("truncated record: missing a word");
        return {};
    }
    const Token &t = toks_[cursor_++];
    if (!t.key.empty()) {
        fail("expected a word, got '" + std::string(t.text) + "'");
        return {};
    }
    return t.text;
}

const TextLine::Token *
TextLine::take(std::string_view key)
{
    if (cursor_ >= toks_.size()) {
        fail("truncated record: missing '" + std::string(key) + "='");
        return nullptr;
    }
    const Token &t = toks_[cursor_++];
    if (t.key != key) {
        fail("expected '" + std::string(key) + "=...', got '" +
             std::string(t.text) + "'");
        return nullptr;
    }
    return &t;
}

bool
TextLine::has(std::string_view key) const
{
    return find(key) != nullptr;
}

const TextLine::Token *
TextLine::find(std::string_view key) const
{
    for (const Token &t : toks_)
        if (t.key == key)
            return &t;
    return nullptr;
}

void
TextLine::only(std::initializer_list<std::string_view> keys,
               std::string_view noun)
{
    for (std::size_t i = cursor_; i < toks_.size(); ++i) {
        const Token &t = toks_[i];
        const std::string k(t.key);
        if (t.key.empty())
            fail("expected key=value, got '" + std::string(t.text) +
                 "' (token is not key=value)");
        else if (std::find(keys.begin(), keys.end(), t.key) == keys.end())
            fail("unknown " + std::string(noun) + " '" + k + "'");
        for (std::size_t j = cursor_; j < i; ++j)
            if (toks_[j].key == t.key)
                fail("duplicate " + std::string(noun) + " '" + k + "'");
    }
}

std::string
TextLine::emptyValue(std::string_view key)
{
    const std::string k(key);
    return "empty value for '" + k + "' (expected key=value, got '" + k +
           "=')";
}

std::string
TextLine::badValue(const Token &t, bool floating)
{
    return std::string(floating ? "bad number" : "bad integer") +
           " for '" + std::string(t.key) + "': '" + std::string(t.value) +
           "'";
}

} // namespace rog
