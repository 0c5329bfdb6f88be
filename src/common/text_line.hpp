/**
 * @file
 * The one strict reader under every text record the system writes and
 * reads back: fault-plan and socket fault specs, the transport event
 * log and wire trace, the node run log, command-line values and the
 * numeric environment knobs.
 *
 * Numbers (parseNumber) are decimal and must fill the whole token: an
 * optional '-', then digits (and for doubles '.' and an exponent). A
 * leading '+' or whitespace, hex, a value outside the target type
 * (including a double that overflows, or underflows to zero) and NaN
 * are all refused; "inf" and "-inf" are the only spellings of
 * infinity.
 *
 * The one matching writer (appendNumber) spells an integer in plain
 * decimal and a double as printf's `%.<p>g` does: p significant digits
 * (6 unless the record asks for more), trailing zeros dropped, an
 * exponent only below 1e-04 or at 10^p and above ("1e-05", "0.0001",
 * "999999", "1e+06"), and "inf", "-inf", "nan", "-nan" for the special
 * values. That is byte for byte what an iostream writes at the same
 * precision. At p = 17 every finite value, subnormals included, reads
 * back bit for bit.
 *
 * Lines (TextLine) are whitespace-separated tokens. A token is a bare
 * word or key=value with a non-empty key; a value may be empty (the
 * getters decide whether that is an error). A value that opens with
 * '"' runs, quotes included, to the last '"' on the line, which must
 * end the line, so free text can ride as the last field:
 * `why="no such file"`.
 *
 * Fields are read either in order (word(), next<T>(key)) for
 * positional grammars, or by key (get<T>(key)) for order-free specs,
 * which first declare their keys with only(). Errors are sticky — the
 * first wins and later reads return zero values — and carry the line
 * number when one was given.
 */
#ifndef ROG_COMMON_TEXT_LINE_HPP
#define ROG_COMMON_TEXT_LINE_HPP

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rog {

/** Strictly parse all of @p text; false (and @p out unspecified) on
 *  anything but a well-formed in-range number. */
bool parseNumber(std::string_view text, double &out);
bool parseNumber(std::string_view text, std::uint64_t &out);
bool parseNumber(std::string_view text, std::int64_t &out);

/** Append @p v in decimal. */
template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
void
appendNumber(std::string &out, T v)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

/** Append @p v as `%.<precision>g` spells it; @p precision is in
 *  [1, 17]. */
void appendNumber(std::string &out, double v, int precision = 6);

/** One tokenized line of a text record. Holds views into @p line,
 *  which must outlive the reader. */
class TextLine
{
  public:
    explicit TextLine(std::string_view line, std::size_t line_no = 0);

    /** Number of tokens on the line. */
    std::size_t size() const { return toks_.size(); }

    bool ok() const { return error_.empty(); }

    /** The first problem, as "line N: what" when numbered. */
    const std::string &error() const { return error_; }

    /** Record @p what unless a problem is already recorded. */
    void fail(const std::string &what);

    /** Key of the next unread token in order; "" for a bare word or
     *  the end of the line. */
    std::string_view peekKey() const;

    /** The next token in order, which must be a bare word. */
    std::string_view word();

    /** The next token in order, which must be @p key=value. */
    template <typename T>
    T
    next(std::string_view key)
    {
        const Token *t = take(key);
        return t ? convert<T>(*t) : T{};
    }

    /**
     * Declare the order-free part of the line: every token after the
     * in-order prefix read so far must be key=value with a key from
     * @p keys, each at most once ("unknown <noun> 'k'", "duplicate
     * <noun> 'k'", "expected key=value" otherwise).
     */
    void only(std::initializer_list<std::string_view> keys,
              std::string_view noun = "key");

    /** Whether @p key=... appears on the line. */
    bool has(std::string_view key) const;

    /** The value of @p key, anywhere on the line; missing is an
     *  error. */
    template <typename T>
    T
    get(std::string_view key)
    {
        const Token *t = find(key);
        if (t == nullptr) {
            fail("missing '" + std::string(key) + "='");
            return T{};
        }
        return convert<T>(*t);
    }

  private:
    struct Token
    {
        std::string_view text;  //!< the whole token as written.
        std::string_view key;   //!< empty for a bare word.
        std::string_view value;
    };

    const Token *take(std::string_view key);
    const Token *find(std::string_view key) const;

    /** @p t's value as a T: a string as written, or a number that
     *  parseNumber accepts and T can hold. */
    template <typename T>
    T
    convert(const Token &t)
    {
        if constexpr (std::is_same_v<T, std::string_view> ||
                      std::is_same_v<T, std::string>) {
            return T(t.value);
        } else {
            using Wide = std::conditional_t<
                std::is_floating_point_v<T>, double,
                std::conditional_t<std::is_signed_v<T>, std::int64_t,
                                   std::uint64_t>>;
            Wide v{};
            if (t.value.empty())
                fail(emptyValue(t.key));
            else if (!parseNumber(t.value, v))
                fail(badValue(t, std::is_floating_point_v<T>));
            else if (!std::is_floating_point_v<T> &&
                     (v < std::numeric_limits<T>::lowest() ||
                      v > std::numeric_limits<T>::max()))
                fail(std::string(t.key) + " out of range: " +
                     std::string(t.value));
            return ok() ? static_cast<T>(v) : T{};
        }
    }

    static std::string emptyValue(std::string_view key);
    static std::string badValue(const Token &t, bool floating);

    std::vector<Token> toks_;
    std::size_t cursor_ = 0;
    std::size_t line_no_ = 0;
    std::string error_;
};

} // namespace rog

#endif // ROG_COMMON_TEXT_LINE_HPP
