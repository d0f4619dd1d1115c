// C++ token lexer for gl_analyze (DESIGN.md §12).
//
// A line-by-line regex checker with a comment/string blanking pre-pass is
// blind to anything spanning statements, and its literal handling has
// gaps (raw strings, digit separators, multi-line directives). gl_analyze
// starts one level lower: this lexer turns a translation unit into a flat
// token stream with correct handling of
//
//   * line and block comments (kept as tokens — fixture expectations live
//     in them),
//   * string literals incl. encoding prefixes (u8/u/U/L) and raw strings
//     R"delim(...)delim" of any delimiter,
//   * character literals and digit separators (1'000'000 is one number, not
//     a number and an unterminated char),
//   * preprocessor directives incl. backslash continuations (one token, so
//     a macro body can never be mistaken for declarations),
//   * maximal-munch punctuation (>>=, <=>, ->, ::, ...).
//
// Everything downstream (tools/analyze/facts.h) consumes tokens, never raw
// text, so a rule never fires on a pattern inside a comment or a string
// literal.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace gl::analyze {

enum class TokKind {
  kIdent,         // identifiers and keywords (callers test text for keywords)
  kNumber,        // pp-number: integers, floats, separators, suffixes
  kString,        // any string literal, prefixes and raw form included
  kChar,          // character literal
  kPunct,         // operators and punctuation, maximal munch
  kComment,       // // or /* */; text keeps the delimiters
  kPreprocessor,  // whole directive line(s), continuations folded in
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
};

// Lexes a whole file. Never fails: unterminated literals and stray bytes
// degenerate into best-effort tokens rather than errors, because an
// analyzer must keep going on code the compiler would reject.
[[nodiscard]] std::vector<Token> Lex(std::string_view source);

// True for C++ keywords that can never be a function or variable name the
// indexer should track (control flow, storage, casts...).
[[nodiscard]] bool IsReservedWord(std::string_view ident);

}  // namespace gl::analyze
