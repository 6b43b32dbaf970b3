#include "tools/mmu-lint/source.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace mmulint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Blanks [begin, end) with spaces, preserving newlines so line numbers survive.
void Blank(std::string& text, size_t begin, size_t end) {
  for (size_t i = begin; i < end && i < text.size(); ++i) {
    if (text[i] != '\n') {
      text[i] = ' ';
    }
  }
}

// One pass over `raw` producing both stripped views. A hand-rolled state machine is enough
// here: the tree doesn't use raw strings or trigraphs, and mmu-lint must stay dependency-free.
void Strip(const std::string& raw, std::string* code, std::string* code_with_strings) {
  *code = raw;
  *code_with_strings = raw;
  enum class State { kNormal, kLineComment, kBlockComment, kString, kChar };
  State state = State::kNormal;
  size_t token_start = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
    switch (state) {
      case State::kNormal:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          token_start = i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          token_start = i;
          ++i;
        } else if (c == '"') {
          state = State::kString;
          token_start = i + 1;
        } else if (c == '\'') {
          state = State::kChar;
          token_start = i + 1;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          Blank(*code, token_start, i);
          Blank(*code_with_strings, token_start, i);
          state = State::kNormal;
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          Blank(*code, token_start, i + 2);
          Blank(*code_with_strings, token_start, i + 2);
          ++i;
          state = State::kNormal;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"' || c == '\n') {  // unterminated-at-newline: bail out of the state
          Blank(*code, token_start, i);
          state = State::kNormal;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'' || c == '\n') {
          Blank(*code, token_start, i);
          state = State::kNormal;
        }
        break;
    }
  }
  if (state == State::kLineComment) {
    Blank(*code, token_start, raw.size());
    Blank(*code_with_strings, token_start, raw.size());
  }
}

// Parses `mmu-lint-allow(ID, ID)` markers out of the raw text (they live in comments, so
// the stripped views can't see them).
void ParseSuppressions(const std::string& raw, std::map<uint32_t, std::set<std::string>>* allow) {
  static const std::string kMarker = "mmu-lint-allow(";
  size_t pos = 0;
  while ((pos = raw.find(kMarker, pos)) != std::string::npos) {
    const size_t open = pos + kMarker.size() - 1;
    const size_t close = raw.find(')', open);
    if (close == std::string::npos) {
      break;
    }
    const uint32_t line = LineOf(raw, pos);
    std::string list = raw.substr(open + 1, close - open - 1);
    std::stringstream ss(list);
    std::string id;
    while (std::getline(ss, id, ',')) {
      const size_t b = id.find_first_not_of(" \t");
      const size_t e = id.find_last_not_of(" \t");
      if (b != std::string::npos) {
        (*allow)[line].insert(id.substr(b, e - b + 1));
      }
    }
    pos = close;
  }
}

// Parses `mmu-lint-<marker>(RULE-ID): reason` annotations out of the raw text. The reason
// runs to end of line, trimmed; missing-or-empty reasons are kept as empty strings so the
// checks can flag them instead of silently honouring a bare annotation.
void ParseAnnotations(const std::string& raw, const std::string& marker,
                      std::vector<SourceFile::Annotation>* out) {
  const std::string prefix = "mmu-lint-" + marker + "(";
  size_t pos = 0;
  while ((pos = raw.find(prefix, pos)) != std::string::npos) {
    const size_t open = pos + prefix.size() - 1;
    const size_t close = raw.find(')', open);
    if (close == std::string::npos) {
      break;
    }
    SourceFile::Annotation ann;
    ann.line = LineOf(raw, pos);
    ann.pos = pos;
    ann.rule = raw.substr(open + 1, close - open - 1);
    size_t r = close + 1;
    if (r < raw.size() && raw[r] == ':') {
      ++r;
    }
    size_t eol = raw.find('\n', r);
    if (eol == std::string::npos) {
      eol = raw.size();
    }
    std::string reason = raw.substr(r, eol - r);
    const size_t b = reason.find_first_not_of(" \t");
    const size_t e = reason.find_last_not_of(" \t");
    ann.reason = b == std::string::npos ? "" : reason.substr(b, e - b + 1);
    out->push_back(ann);
    pos = close;
  }
}

void ParseIncludes(const SourceFile& sf, std::vector<Include>* includes) {
  size_t pos = 0;
  const std::string& text = sf.code_with_strings;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    size_t p = pos;
    while (p < eol && (text[p] == ' ' || text[p] == '\t')) {
      ++p;
    }
    if (p < eol && text[p] == '#') {
      ++p;
      while (p < eol && (text[p] == ' ' || text[p] == '\t')) {
        ++p;
      }
      if (text.compare(p, 7, "include") == 0) {
        const size_t q1 = text.find('"', p);
        if (q1 != std::string::npos && q1 < eol) {
          const size_t q2 = text.find('"', q1 + 1);
          if (q2 != std::string::npos && q2 < eol) {
            includes->push_back(
                {text.substr(q1 + 1, q2 - q1 - 1), LineOf(text, pos)});
          }
        }
      }
    }
    pos = eol + 1;
  }
}

}  // namespace

bool SourceFile::Suppressed(uint32_t line, const std::string& rule) const {
  for (uint32_t l : {line, line > 0 ? line - 1 : 0}) {
    auto it = allow.find(l);
    if (it != allow.end() && (it->second.count(rule) != 0 || it->second.count("*") != 0)) {
      return true;
    }
  }
  return false;
}

const SourceFile::Annotation* SourceFile::AnnotationIn(const std::vector<Annotation>& list,
                                                       size_t begin, size_t end,
                                                       const std::string& rule) {
  for (const Annotation& ann : list) {
    if (ann.pos >= begin && ann.pos < end && ann.rule == rule) {
      return &ann;
    }
  }
  return nullptr;
}

bool LoadSource(const std::string& fs_path, const std::string& rel_path, SourceFile* out,
                std::string* error) {
  std::ifstream in(fs_path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + fs_path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  out->path = rel_path;
  out->raw = buf.str();
  Strip(out->raw, &out->code, &out->code_with_strings);
  ParseSuppressions(out->raw, &out->allow);
  ParseAnnotations(out->raw, "deferred-flush", &out->deferred_flush);
  ParseAnnotations(out->raw, "ambient", &out->ambient);
  ParseAnnotations(out->raw, "hot", &out->hot);
  ParseIncludes(*out, &out->includes);
  return true;
}

uint32_t LineOf(const std::string& text, size_t pos) {
  uint32_t line = 1;
  for (size_t i = 0; i < pos && i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
    }
  }
  return line;
}

std::vector<size_t> FindIdentifier(const std::string& text, const std::string& ident) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = text.find(ident, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t end = pos + ident.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) {
      hits.push_back(pos);
    }
    pos = end;
  }
  return hits;
}

size_t MatchForward(const std::string& text, size_t open_pos, char open, char close) {
  int depth = 0;
  for (size_t i = open_pos; i < text.size(); ++i) {
    if (text[i] == open) {
      ++depth;
    } else if (text[i] == close) {
      --depth;
      if (depth == 0) {
        return i + 1;
      }
    }
  }
  return std::string::npos;
}

}  // namespace mmulint
