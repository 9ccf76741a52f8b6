/**
 * @file
 * Minimal JSON rendering/scanning helpers shared by the on-disk
 * metadata writers (sweep manifest and result lines, columnar dataset
 * index, proxy screen record).
 *
 * These are deliberately NOT a general JSON library: the renderers
 * emit exactly the subset the readers accept, and the readers only
 * accept what this codebase itself writes — anything else throws
 * std::runtime_error naming the context and key. Doubles render in
 * shortest round-trip form (std::to_chars), so a JSON round trip is
 * value-exact.
 */

#ifndef ARCHGYM_CORE_JSONIO_H
#define ARCHGYM_CORE_JSONIO_H

#include <cstdint>
#include <string>
#include <vector>

namespace archgym {
namespace jsonio {

/** Append the shortest round-trip rendering of v (from_chars-exact). */
void appendDouble(std::string &out, double v);

/**
 * JSON string escaping: quote and backslash, \n \r \t, and \u00XX for
 * the other control bytes, so any byte string renders on one line.
 * Bytes >= 0x80 pass through unchanged.
 */
std::string escape(const std::string &s);

/**
 * Decode the escaped string literal whose opening quote is at `pos`
 * (the inverse of escape()). On success stores the value in `out`,
 * moves `pos` past the closing quote and returns true; returns false,
 * leaving both untouched, on a missing quote, an unterminated literal
 * or an escape escape() never writes.
 */
bool readString(const std::string &text, std::size_t &pos,
                std::string &out);

/**
 * Locate `"key":` in one of our own JSON documents starting at
 * `from` and return the position just past the colon. Throws with the
 * given context when the key is absent.
 */
std::size_t valuePos(const std::string &text, const std::string &key,
                     const std::string &context, std::size_t from = 0);

double doubleField(const std::string &text, const std::string &key,
                   const std::string &context, std::size_t from = 0);

std::uint64_t uintField(const std::string &text, const std::string &key,
                        const std::string &context, std::size_t from = 0);

/** String value of `key`, decoded by readString(); throws when the
 *  key is absent or the literal is malformed. */
std::string stringField(const std::string &text, const std::string &key,
                        const std::string &context, std::size_t from = 0);

std::vector<double> doubleArrayField(const std::string &text,
                                     const std::string &key,
                                     const std::string &context,
                                     std::size_t from = 0);

std::vector<std::uint64_t> uintArrayField(const std::string &text,
                                          const std::string &key,
                                          const std::string &context,
                                          std::size_t from = 0);

} // namespace jsonio
} // namespace archgym

#endif // ARCHGYM_CORE_JSONIO_H
