// Token/preprocessor-level view of one source file.
//
// mmu-lint never parses C++ properly; every check works on (a) the #include list, (b) the
// identifier stream with comments and literals blanked out, and (c) string literals with
// comments blanked out. The stripper keeps newlines, so byte offsets map to the original
// line numbers and diagnostics stay clickable.

#ifndef PPCMM_TOOLS_MMU_LINT_SOURCE_H_
#define PPCMM_TOOLS_MMU_LINT_SOURCE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mmulint {

struct Include {
  std::string target;  // include path as written, e.g. "src/mmu/tlb.h"
  uint32_t line = 0;
};

struct SourceFile {
  std::string path;  // root-relative with forward slashes, e.g. "src/mmu/tlb.h"
  std::string raw;   // file contents as read

  // `code`: comments AND string/char literal contents blanked with spaces (quotes kept).
  // `code_with_strings`: only comments blanked — the counter checks read literals here.
  std::string code;
  std::string code_with_strings;

  std::vector<Include> includes;  // quoted includes only; <system> headers are ignored

  // Lines carrying a `mmu-lint-allow(RULE-ID[, RULE-ID...])` comment. A suppression on
  // line N silences matching diagnostics on lines N and N+1 ("*" silences every rule).
  std::map<uint32_t, std::set<std::string>> allow;

  // Function-level contract annotations, parsed from the raw text (they live in comments):
  //   // mmu-lint-deferred-flush(FLUSH-CONTRACT-029): <reason>
  //   // mmu-lint-ambient(ATTR-COVER-032): <reason>
  //   // mmu-lint-hot(HOT-CLOSURE-030): <reason>
  // An annotation applies to the function definition whose [name, body-end] byte range
  // contains it — put it on the signature line or inside the body. The reason is required;
  // an empty one is reported as a violation of the annotated rule, not silently honoured.
  struct Annotation {
    uint32_t line = 0;
    size_t pos = 0;  // byte offset of the marker (raw and stripped views share offsets)
    std::string rule;
    std::string reason;
  };
  std::vector<Annotation> deferred_flush;  // mmu-lint-deferred-flush markers
  std::vector<Annotation> ambient;         // mmu-lint-ambient markers
  std::vector<Annotation> hot;             // mmu-lint-hot markers: the hot tier's entry points

  bool Suppressed(uint32_t line, const std::string& rule) const;

  // First annotation in `list` whose marker lies in [begin, end) and names `rule`.
  static const Annotation* AnnotationIn(const std::vector<Annotation>& list, size_t begin,
                                        size_t end, const std::string& rule);
};

// Loads and strips one file. Returns false (and fills *error) if unreadable.
bool LoadSource(const std::string& fs_path, const std::string& rel_path, SourceFile* out,
                std::string* error);

// 1-based line number of byte offset `pos` in `text`.
uint32_t LineOf(const std::string& text, size_t pos);

// Every occurrence of `ident` in `text` as a whole identifier (not a substring of a longer
// identifier); returns byte offsets.
std::vector<size_t> FindIdentifier(const std::string& text, const std::string& ident);

// Byte offset just past the identifier's matching close-token starting at `open_pos`
// (which must hold `open`), honouring nesting. Returns std::string::npos when unbalanced.
size_t MatchForward(const std::string& text, size_t open_pos, char open, char close);

}  // namespace mmulint

#endif  // PPCMM_TOOLS_MMU_LINT_SOURCE_H_
