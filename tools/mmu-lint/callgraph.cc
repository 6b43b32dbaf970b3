#include "tools/mmu-lint/callgraph.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string_view>

namespace mmulint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Tokens that look like `name (` but never name a function we want a node or an edge for:
// control flow, operators, casts, and the builtin types that appear as functional casts.
const std::set<std::string>& Keywords() {
  static const std::set<std::string> kKeywords = {
      "if",           "else",          "for",        "while",     "do",       "switch",
      "case",         "default",       "return",     "sizeof",    "alignof",  "alignas",
      "catch",        "throw",         "new",        "delete",    "this",     "operator",
      "static_cast",  "dynamic_cast",  "const_cast", "reinterpret_cast",      "typeid",
      "decltype",     "static_assert", "assert",     "noexcept",  "constexpr",
      "template",     "typename",      "using",      "namespace", "requires", "concept",
      "co_await",     "co_return",     "co_yield",   "not",       "and",      "or",
      "void",         "bool",          "char",       "int",       "unsigned", "signed",
      "long",         "short",         "float",      "double",    "auto",     "size_t",
      "int8_t",       "int16_t",       "int32_t",    "int64_t",   "uint8_t",  "uint16_t",
      "uint32_t",     "uint64_t",      "uintptr_t",  "intptr_t",  "ptrdiff_t",
  };
  return kKeywords;
}

struct ClassRange {
  std::string name;
  size_t begin = 0;  // opening `{`
  size_t end = 0;    // one past the matching `}`
};

struct Token {
  size_t pos = 0;
  std::string text;
};

std::vector<Token> Tokenize(const std::string& code) {
  std::vector<Token> tokens;
  for (size_t i = 0; i < code.size();) {
    if (IsIdentStart(code[i]) && (i == 0 || !IsIdentChar(code[i - 1]))) {
      size_t j = i;
      while (j < code.size() && IsIdentChar(code[j])) {
        ++j;
      }
      tokens.push_back({i, code.substr(i, j - i)});
      i = j;
    } else {
      ++i;
    }
  }
  return tokens;
}

size_t SkipWs(const std::string& code, size_t pos) {
  return code.find_first_not_of(" \t\n", pos);
}

// Last non-whitespace byte strictly before `pos`, or npos.
size_t PrevNonWs(const std::string& code, size_t pos) {
  while (pos > 0) {
    --pos;
    if (code[pos] != ' ' && code[pos] != '\t' && code[pos] != '\n') {
      return pos;
    }
  }
  return std::string::npos;
}

// Identifier ending at byte `end` (exclusive), or empty.
std::string IdentEndingAt(const std::string& code, size_t end) {
  size_t b = end;
  while (b > 0 && IsIdentChar(code[b - 1])) {
    --b;
  }
  if (b == end || !IsIdentStart(code[b])) {
    return std::string();
  }
  return code.substr(b, end - b);
}

// Offset of the `(` matching the `)` at close_pos, or npos.
size_t MatchBackward(const std::string& code, size_t close_pos) {
  int depth = 0;
  for (size_t i = close_pos + 1; i > 0;) {
    --i;
    if (code[i] == ')') {
      ++depth;
    } else if (code[i] == '(') {
      --depth;
      if (depth == 0) {
        return i;
      }
    }
  }
  return std::string::npos;
}

// Collects class/struct definitions (brace ranges) and names. Forward declarations still
// contribute the name so `Class&` parameter inference works across files.
void ScanClasses(const SourceFile& sf, std::vector<ClassRange>* ranges,
                 std::set<std::string>* classes) {
  const std::string& code = sf.code;
  for (const char* kw : {"class", "struct"}) {
    for (size_t pos : FindIdentifier(code, kw)) {
      const size_t before = PrevNonWs(code, pos);
      if (before != std::string::npos && IsIdentChar(code[before])) {
        const std::string prev = IdentEndingAt(code, before + 1);
        if (prev == "enum") {
          continue;  // enum class: no member functions to index
        }
      }
      size_t p = SkipWs(code, pos + std::string(kw).size());
      if (p == std::string::npos || !IsIdentStart(code[p])) {
        continue;  // `template <class T>` and friends
      }
      size_t q = p;
      while (q < code.size() && IsIdentChar(code[q])) {
        ++q;
      }
      const std::string name = code.substr(p, q - p);
      size_t r = SkipWs(code, q);
      if (r != std::string::npos && code.compare(r, 5, "final") == 0) {
        r = SkipWs(code, r + 5);
      }
      if (r == std::string::npos) {
        continue;
      }
      if (code[r] == ';') {
        classes->insert(name);  // forward declaration
        continue;
      }
      if (code[r] != '{' && code[r] != ':') {
        continue;  // `struct Foo var;`, template parameter, etc.
      }
      const size_t brace = code[r] == '{' ? r : code.find('{', r);
      if (brace == std::string::npos) {
        continue;
      }
      const size_t end = MatchForward(code, brace, '{', '}');
      if (end == std::string::npos) {
        continue;
      }
      classes->insert(name);
      ranges->push_back({name, brace, end});
    }
  }
}

// Advances past a constructor initializer list starting at the `:` at pos. Returns the
// offset of the body `{` or npos if this is not an initializer list followed by a body.
size_t SkipCtorInitList(const std::string& code, size_t pos) {
  size_t p = pos + 1;  // past ':'
  for (;;) {
    p = SkipWs(code, p);
    if (p == std::string::npos || !IsIdentStart(code[p])) {
      return std::string::npos;
    }
    while (p < code.size() && IsIdentChar(code[p])) {
      ++p;
    }
    p = SkipWs(code, p);
    if (p != std::string::npos && code[p] == '<') {  // templated base: Base<T>(...)
      p = MatchForward(code, p, '<', '>');
      if (p == std::string::npos) {
        return std::string::npos;
      }
      p = SkipWs(code, p);
    }
    if (p == std::string::npos || (code[p] != '(' && code[p] != '{')) {
      return std::string::npos;
    }
    p = MatchForward(code, p, code[p], code[p] == '(' ? ')' : '}');
    if (p == std::string::npos) {
      return std::string::npos;
    }
    p = SkipWs(code, p);
    if (p == std::string::npos) {
      return std::string::npos;
    }
    if (code[p] == ',') {
      ++p;
      continue;
    }
    return code[p] == '{' ? p : std::string::npos;
  }
}

// If the token at `tok` opens a function definition, fills *def (file left empty) and the
// owning class (from a `Class::` prefix or the innermost enclosing class brace range) and
// returns true.
bool MatchDefinition(const SourceFile& sf, const std::vector<ClassRange>& ranges,
                     const Token& tok, FuncDef* def, std::string* cls) {
  const std::string& code = sf.code;
  const size_t before = PrevNonWs(code, tok.pos);
  if (before != std::string::npos && code[before] == '~') {
    return false;  // destructors: nothing the graph rules care about
  }
  // A constructor's member initializer (`: table_(n), mem_(m) {`) opens no definition; a
  // single `:` may only end an access specifier.
  if (before != std::string::npos &&
      (code[before] == ',' ||
       (code[before] == ':' && (before == 0 || code[before - 1] != ':') &&
        std::set<std::string>{"public", "private", "protected"}.count(
            IdentEndingAt(code, PrevNonWs(code, before) + 1)) == 0))) {
    return false;
  }
  size_t p = SkipWs(code, tok.pos + tok.text.size());
  if (p == std::string::npos || code[p] != '(') {
    return false;
  }
  p = MatchForward(code, p, '(', ')');
  if (p == std::string::npos) {
    return false;
  }
  // Trailing qualifiers, `noexcept(...)`, and `-> Type` between params and body.
  for (;;) {
    p = SkipWs(code, p);
    if (p == std::string::npos) {
      return false;
    }
    bool skipped = false;
    for (const char* qual : {"const", "noexcept", "override", "final"}) {
      const std::string q(qual);
      if (code.compare(p, q.size(), q) == 0 && !IsIdentChar(code[p + q.size()])) {
        p += q.size();
        const size_t after = SkipWs(code, p);
        if (q == "noexcept" && after != std::string::npos && code[after] == '(') {
          p = MatchForward(code, after, '(', ')');
          if (p == std::string::npos) {
            return false;
          }
        }
        skipped = true;
        break;
      }
    }
    if (!skipped) {
      break;
    }
  }
  if (code.compare(p, 2, "->") == 0) {  // trailing return type
    const size_t brace = code.find('{', p);
    const size_t semi = code.find(';', p);
    if (brace == std::string::npos || (semi != std::string::npos && semi < brace)) {
      return false;
    }
    p = brace;
  }
  if (code[p] == ':' && p + 1 < code.size() && code[p + 1] != ':') {
    p = SkipCtorInitList(code, p);
    if (p == std::string::npos) {
      return false;
    }
  }
  if (code[p] != '{') {
    return false;
  }
  const size_t end = MatchForward(code, p, '{', '}');
  if (end == std::string::npos) {
    return false;
  }
  def->name_pos = tok.pos;
  def->body_begin = p;
  def->body_end = end;
  def->line = LineOf(code, tok.pos);

  cls->clear();
  if (before != std::string::npos && before >= 1 && code[before] == ':' &&
      code[before - 1] == ':') {
    *cls = IdentEndingAt(code, before - 1);
    if (!cls->empty()) {
      return true;
    }
  }
  // In-class definition: innermost class brace range containing the name.
  size_t best_span = std::string::npos;
  for (const ClassRange& range : ranges) {
    if (tok.pos > range.begin && tok.pos < range.end && range.end - range.begin < best_span) {
      best_span = range.end - range.begin;
      *cls = range.name;
    }
  }
  return true;
}

// Declared type of `ident` in code[begin, limit): an identifier naming a known class,
// separated from `ident` only by whitespace / `&` / `*` / `const`. Covers parameters
// (`Tlb& tlb`) and local declarations (`Helper h;`).
// With `members_only`, [begin, limit) is a class body and only its own declarations count,
// not the parameters or locals of the methods inside it.
std::string InferDeclaredType(const std::string& code, size_t begin, size_t limit,
                              const std::string& ident, const std::set<std::string>& classes,
                              bool members_only = false) {
  for (size_t pos : FindIdentifier(code, ident)) {
    if (pos < begin || pos >= limit) {
      continue;
    }
    if (members_only) {
      int depth = 0;
      for (size_t i = begin + 1; i < pos; ++i) {
        depth += code[i] == '(' || code[i] == '{' ? 1 : code[i] == ')' || code[i] == '}' ? -1 : 0;
      }
      if (depth != 0) {
        continue;
      }
    }
    size_t b = pos;
    for (;;) {
      const size_t prev = PrevNonWs(code, b);
      if (prev == std::string::npos) {
        break;
      }
      if (code[prev] == '&' || code[prev] == '*') {
        b = prev;
        continue;
      }
      if (IsIdentChar(code[prev])) {
        const std::string t = IdentEndingAt(code, prev + 1);
        if (t == "const") {
          b = prev + 1 - t.size();
          continue;
        }
        if (classes.count(t) != 0) {
          return t;
        }
      }
      break;
    }
  }
  return std::string();
}

// Offset one past the `>` closing the template argument list whose `<` is at `open`, or
// npos when the text is no such list: only names, numbers, `::`, `,`, `*`, single `&` and
// nested lists may appear, which keeps comparisons like `a < b && c > (d)` out.
size_t SkipTemplateArgs(const std::string& code, size_t open) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      if (--depth == 0) {
        return i + 1;
      }
    } else if ((c == '&' && code[i + 1] == '&') ||
               (!IsIdentChar(c) && std::string_view(" \t\n,:*&").find(c) == std::string::npos)) {
      return std::string::npos;
    }
  }
  return std::string::npos;
}

// True when the name at `pos`, whose text (and template arguments) end before `after`, is
// the operand of a unary `&` (`= &Fn`, `? &Fn<2>`, `return &Fn`): not of a binary and or a
// reference declarator (`a & Fn`, `Type& fn`), nor the start of a data access (`&v[i]`,
// `&obj.field`).
bool AddressTaken(const std::string& code, size_t pos, size_t after) {
  if (after != std::string::npos &&
      (code[after] == '[' || code[after] == '.' || code.compare(after, 2, "->") == 0)) {
    return false;
  }
  const size_t amp = PrevNonWs(code, pos);
  if (amp == std::string::npos || code[amp] != '&') {
    return false;
  }
  const size_t prev = PrevNonWs(code, amp);
  if (prev == std::string::npos) {
    return true;
  }
  if (IsIdentChar(code[prev])) {
    return IdentEndingAt(code, prev + 1) == "return";
  }
  return std::string_view("&)]>").find(code[prev]) == std::string::npos;
}

std::string LookupReceiverTable(const std::vector<ReceiverType>& table,
                                const std::string& token) {
  for (const ReceiverType& rt : table) {
    if (rt.token == token) {
      return rt.cls;
    }
  }
  return std::string();
}

}  // namespace

CallGraph BuildCallGraph(const Tree& tree) {
  CallGraph graph;
  struct FileIndex {
    const SourceFile* sf = nullptr;
    std::vector<ClassRange> ranges;
    std::vector<Token> tokens;
  };
  std::map<std::string, FileIndex> files;

  // Pass 1: classes and function definitions across every src/ file, so call resolution
  // in pass 2 sees the whole tree's symbols regardless of file order.
  for (const auto& [path, sf] : tree.files) {
    if (path.compare(0, 4, "src/") != 0) {
      continue;
    }
    FileIndex& fi = files[path];
    fi.sf = &sf;
    ScanClasses(sf, &fi.ranges, &graph.classes);
    fi.tokens = Tokenize(sf.code);
  }
  // Class name -> its bodies, for data-member receiver inference.
  std::map<std::string, std::vector<std::pair<const std::string*, ClassRange>>> class_bodies;
  for (auto& [path, fi] : files) {
    for (const ClassRange& range : fi.ranges) {
      class_bodies[range.name].push_back({&fi.sf->code, range});
    }
    for (const Token& tok : fi.tokens) {
      if (Keywords().count(tok.text) != 0) {
        continue;
      }
      FuncDef def;
      std::string cls;
      if (!MatchDefinition(*fi.sf, fi.ranges, tok, &def, &cls)) {
        continue;
      }
      def.file = path;
      const std::string id = cls.empty() ? tok.text : cls + "::" + tok.text;
      CallNode& node = graph.nodes[id];
      if (node.defs.empty()) {
        node.id = id;
        node.cls = cls;
        node.name = tok.text;
        graph.by_name[tok.text].push_back(id);
      }
      node.defs.push_back(def);
    }
  }

  // Pass 2: call edges inside each definition body (excluding bodies of definitions
  // nested inside it, e.g. methods of a function-local class — those get their own node).
  for (auto& [id, node] : graph.nodes) {
    for (size_t di = 0; di < node.defs.size(); ++di) {
      const FuncDef& def = node.defs[di];
      const FileIndex& fi = files.at(def.file);
      const std::string& code = fi.sf->code;

      std::vector<std::pair<size_t, size_t>> nested;
      for (const auto& [other_id, other] : graph.nodes) {
        for (const FuncDef& od : other.defs) {
          if (od.file == def.file && od.body_begin > def.body_begin &&
              od.body_end < def.body_end) {
            nested.push_back({od.body_begin, od.body_end});
          }
        }
      }

      for (const Token& tok : fi.tokens) {
        if (tok.pos <= def.body_begin || tok.pos >= def.body_end) {
          continue;
        }
        bool in_nested = false;
        for (const auto& [b, e] : nested) {
          if (tok.pos > b && tok.pos < e) {
            in_nested = true;
            break;
          }
        }
        if (in_nested || Keywords().count(tok.text) != 0) {
          continue;
        }
        // A call is `name(` or `name<args>(`; a function whose address is taken gets the
        // same edge, as the pointer is called later (`&SweepChunk<...>`).
        size_t after = SkipWs(code, tok.pos + tok.text.size());
        if (after != std::string::npos && code[after] == '<') {
          after = SkipTemplateArgs(code, after);
          after = after == std::string::npos ? after : SkipWs(code, after);
        }
        if ((after == std::string::npos || code[after] != '(') &&
            !AddressTaken(code, tok.pos, after)) {
          continue;
        }

        CallSite site;
        site.file = def.file;
        site.line = LineOf(code, tok.pos);
        site.pos = tok.pos;
        site.def_index = di;

        const size_t before = PrevNonWs(code, tok.pos);
        if (before != std::string::npos && before >= 1 && code[before] == ':' &&
            code[before - 1] == ':') {
          const std::string qual = IdentEndingAt(code, before - 1);
          if (qual.empty() || qual == "std") {
            continue;
          }
          site.callee = qual + "::" + tok.text;
          site.kind = CallSite::Kind::kQualified;
          node.calls.push_back(site);
          continue;
        }

        bool has_receiver = false;
        size_t recv_end = std::string::npos;  // one past the receiver expression
        if (before != std::string::npos && code[before] == '.') {
          has_receiver = true;
          recv_end = before;
        } else if (before != std::string::npos && before >= 1 && code[before] == '>' &&
                   code[before - 1] == '-') {
          has_receiver = true;
          recv_end = before - 1;
        }

        if (has_receiver) {
          const size_t rp = PrevNonWs(code, recv_end);
          if (rp == std::string::npos) {
            continue;
          }
          std::string recv_type;
          if (code[rp] == ')') {
            // Chained accessor: `mmu_->htab().Insert(...)` — resolve through the method
            // name in front of the matched `(`.
            const size_t open = MatchBackward(code, rp);
            if (open != std::string::npos) {
              const size_t mp = PrevNonWs(code, open);
              if (mp != std::string::npos && IsIdentChar(code[mp])) {
                recv_type = LookupReceiverTable(MethodReturnTypes(),
                                                IdentEndingAt(code, mp + 1));
              }
            }
          } else if (IsIdentChar(code[rp])) {
            const std::string recv = IdentEndingAt(code, rp + 1);
            if (recv == "this") {
              if (!node.cls.empty()) {
                site.callee = node.cls + "::" + tok.text;
                site.kind = CallSite::Kind::kSameClass;
                node.calls.push_back(site);
              }
              continue;
            }
            recv_type = LookupReceiverTable(ReceiverTypes(), recv);
            if (recv_type.empty()) {
              recv_type = InferDeclaredType(code, def.name_pos, tok.pos, recv, graph.classes);
            }
            // A data member: its declaration in the caller's class body (`Cache* dcache_cur_;`).
            for (const auto& [body_code, range] : class_bodies[node.cls]) {
              if (!recv_type.empty()) {
                break;
              }
              recv_type = InferDeclaredType(*body_code, range.begin, range.end, recv,
                                            graph.classes, /*members_only=*/true);
            }
          }
          if (recv_type.empty()) {
            continue;  // unknown receiver: no edge rather than a wrong edge
          }
          site.callee = recv_type + "::" + tok.text;
          site.kind = CallSite::Kind::kMember;
          node.calls.push_back(site);
          continue;
        }

        // Bare call: same-class method, then unique global name.
        if (!node.cls.empty() &&
            graph.nodes.count(node.cls + "::" + tok.text) != 0) {
          site.callee = node.cls + "::" + tok.text;
          site.kind = CallSite::Kind::kSameClass;
          node.calls.push_back(site);
          continue;
        }
        const auto it = graph.by_name.find(tok.text);
        if (it != graph.by_name.end() && it->second.size() == 1) {
          site.callee = it->second[0];
          site.kind = CallSite::Kind::kUnique;
          node.calls.push_back(site);
        }
      }
    }
  }
  return graph;
}

const CallNode* EnclosingFunction(const CallGraph& graph, const std::string& file, size_t pos,
                                  size_t* def_index) {
  const CallNode* best = nullptr;
  size_t best_span = std::string::npos;
  for (const auto& [id, node] : graph.nodes) {
    for (size_t di = 0; di < node.defs.size(); ++di) {
      const FuncDef& def = node.defs[di];
      if (def.file == file && pos >= def.name_pos && pos < def.body_end &&
          def.body_end - def.name_pos < best_span) {
        best_span = def.body_end - def.name_pos;
        best = &node;
        if (def_index != nullptr) {
          *def_index = di;
        }
      }
    }
  }
  return best;
}

const char* CallKindName(CallSite::Kind kind) {
  switch (kind) {
    case CallSite::Kind::kQualified:
      return "qualified";
    case CallSite::Kind::kMember:
      return "member";
    case CallSite::Kind::kSameClass:
      return "same-class";
    case CallSite::Kind::kUnique:
      return "unique";
  }
  return "unknown";
}

std::string CallGraphToJson(const CallGraph& graph) {
  std::ostringstream out;
  out << "{\n  \"nodes\": [\n";
  bool first_node = true;
  for (const auto& [id, node] : graph.nodes) {
    if (!first_node) {
      out << ",\n";
    }
    first_node = false;
    out << "    {\n";
    out << "      \"id\": \"" << id << "\",\n";
    out << "      \"class\": \"" << node.cls << "\",\n";
    out << "      \"name\": \"" << node.name << "\",\n";
    out << "      \"defs\": " << node.defs.size() << ",\n";
    out << "      \"file\": \"" << node.defs.front().file << "\",\n";
    out << "      \"line\": " << node.defs.front().line << ",\n";
    out << "      \"calls\": [";
    bool first_call = true;
    for (const CallSite& call : node.calls) {
      if (!first_call) {
        out << ",";
      }
      first_call = false;
      out << "\n        {\"callee\": \"" << call.callee << "\", \"line\": " << call.line
          << ", \"kind\": \"" << CallKindName(call.kind) << "\"}";
    }
    out << (first_call ? "]" : "\n      ]") << "\n    }";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::string CallGraphToDot(const CallGraph& graph) {
  std::ostringstream out;
  out << "digraph mmu_lint_callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  for (const auto& [id, node] : graph.nodes) {
    out << "  \"" << id << "\" [tooltip=\"" << node.defs.front().file << ":"
        << node.defs.front().line << "\"];\n";
  }
  std::set<std::string> emitted;
  for (const auto& [id, node] : graph.nodes) {
    for (const CallSite& call : node.calls) {
      if (graph.nodes.count(call.callee) == 0) {
        continue;  // keep the rendering to resolved edges; dangling ones add only noise
      }
      std::ostringstream edge;
      edge << "  \"" << id << "\" -> \"" << call.callee << "\" [label=\""
           << CallKindName(call.kind) << "\"];\n";
      if (emitted.insert(edge.str()).second) {
        out << edge.str();
      }
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace mmulint
