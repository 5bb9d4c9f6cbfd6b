#include "core/serialize.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/str.h"
#include "core/validate.h"

namespace fdb {

namespace {

constexpr const char* kMagic = "fdb-frep";
constexpr int kVersion = 1;

// Hard cap on serialized f-tree node ids. Node records may legitimately
// leave gaps (dead nodes keep their pool slot), but the reader materialises
// the whole pool up to the largest id — without a cap, a single forged
// `node 999999999 ...` line makes a kilobyte file allocate gigabytes before
// any validation runs. Real pools are tiny (one node per attribute class);
// 2^16 leaves orders of magnitude of headroom.
constexpr int64_t kMaxNodeId = (int64_t{1} << 16) - 1;

// Strict fixed-width hex: non-empty, hex digits only, at most 16 of them
// (one uint64). istream's `>> std::hex` is too lenient for an untrusted
// boundary — it silently accepts trailing garbage ("12xy" parses as 0x12)
// and a leading '-' wraps through negation.
uint64_t ParseHex(const std::string& s) {
  FDB_CHECK_MSG(!s.empty() && s.size() <= 16, "bad hex field: " + s);
  uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      throw FdbError("bad hex field: " + s);
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  return v;
}

// Splits "key=value" and checks the key.
std::string Field(const std::string& token, const std::string& key) {
  auto pos = token.find('=');
  FDB_CHECK_MSG(pos != std::string::npos && token.substr(0, pos) == key,
                "expected field '" + key + "', got '" + token + "'");
  return token.substr(pos + 1);
}

std::vector<int64_t> ParseIntList(const std::string& s) {
  std::vector<int64_t> out;
  if (s.empty()) return out;
  for (const std::string& part : Split(s, ',')) {
    int64_t v;
    FDB_CHECK_MSG(ParseInt64(part, &v), "bad integer list entry: " + part);
    out.push_back(v);
  }
  return out;
}

}  // namespace

void WriteFRep(std::ostream& out, const FRep& rep) {
  out << kMagic << ' ' << kVersion << '\n';
  const FTree& t = rep.tree();
  out << std::hex;
  for (size_t i = 0; i < t.pool_size(); ++i) {
    const FTreeNode& n = t.node(static_cast<int>(i));
    if (!n.alive) continue;
    out << "node " << std::dec << i << std::hex
        << " attrs=" << n.attrs.bits() << " visible=" << n.visible.bits()
        << " cover=" << n.cover_rels.bits() << " dep=" << n.dep_rels.bits()
        << " const=" << (n.constant ? 1 : 0) << " parent=" << std::dec
        << n.parent << '\n';
  }
  out << std::dec;
  for (int r : t.roots()) out << "troot " << r << '\n';
  out << (rep.empty() ? "empty" : "nonempty") << '\n';
  if (!rep.empty()) {
    // Walk reachable unions; ids are rewritten densely in discovery order.
    std::vector<uint32_t> order;
    std::vector<int64_t> new_id(rep.NumUnions(), -1);
    std::vector<uint32_t> stack(rep.roots().rbegin(), rep.roots().rend());
    while (!stack.empty()) {
      uint32_t id = stack.back();
      stack.pop_back();
      if (new_id[id] >= 0) continue;
      new_id[id] = static_cast<int64_t>(order.size());
      order.push_back(id);
      UnionRef un = rep.u(id);
      for (size_t i = un.num_children(); i > 0; --i) {
        stack.push_back(un.child(i - 1));
      }
    }
    for (uint32_t id : order) {
      UnionRef un = rep.u(id);
      out << "union " << new_id[id] << " node=" << un.node() << " values=";
      for (size_t i = 0; i < un.size(); ++i) {
        if (i) out << ',';
        out << un.value(i);
      }
      out << " children=";
      for (size_t i = 0; i < un.num_children(); ++i) {
        if (i) out << ',';
        out << new_id[un.child(i)];
      }
      out << '\n';
    }
    for (uint32_t r : rep.roots()) out << "uroot " << new_id[r] << '\n';
  }
  out << "end\n";
}

FRep ReadFRep(std::istream& in) {
  std::string line;
  // Skip leading comments and blank lines before the header.
  bool have_header = false;
  while (std::getline(in, line)) {
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    have_header = true;
    break;
  }
  FDB_CHECK_MSG(have_header, "empty f-representation input");
  {
    std::vector<std::string> head = Split(line, ' ');
    FDB_CHECK_MSG(head.size() == 2 && head[0] == kMagic &&
                      head[1] == std::to_string(kVersion),
                  "bad f-representation header: " + line);
  }

  // Node records may arrive with arbitrary ids; collect then build.
  struct NodeRec {
    int id;
    uint64_t attrs, visible, cover, dep;
    bool constant;
    int parent;
  };
  std::vector<NodeRec> nodes;
  std::vector<int> troots;
  struct UnionRec {
    int64_t id;
    int node;
    std::vector<int64_t> values, children;
  };
  std::vector<UnionRec> unions;
  std::vector<int64_t> uroots;
  bool empty = true, saw_state = false, saw_end = false;

  while (std::getline(in, line)) {
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> tok = Split(line, ' ');
    const std::string& kind = tok[0];
    if (kind == "node") {
      FDB_CHECK_MSG(tok.size() == 8, "bad node record: " + line);
      NodeRec n;
      int64_t id, parent;
      FDB_CHECK_MSG(ParseInt64(tok[1], &id) && id >= 0 && id <= kMaxNodeId,
                    "bad node id");
      n.id = static_cast<int>(id);
      n.attrs = ParseHex(Field(tok[2], "attrs"));
      n.visible = ParseHex(Field(tok[3], "visible"));
      n.cover = ParseHex(Field(tok[4], "cover"));
      n.dep = ParseHex(Field(tok[5], "dep"));
      n.constant = Field(tok[6], "const") == "1";
      FDB_CHECK_MSG(ParseInt64(Field(tok[7], "parent"), &parent) &&
                        parent >= -1 && parent <= kMaxNodeId,
                    "bad parent id");
      n.parent = static_cast<int>(parent);
      nodes.push_back(n);
    } else if (kind == "troot") {
      FDB_CHECK_MSG(tok.size() == 2, "bad troot record: " + line);
      int64_t id;
      FDB_CHECK_MSG(ParseInt64(tok[1], &id) && id >= 0 && id <= kMaxNodeId,
                    "bad troot id");
      troots.push_back(static_cast<int>(id));
    } else if (kind == "empty" || kind == "nonempty") {
      empty = kind == "empty";
      saw_state = true;
    } else if (kind == "union") {
      FDB_CHECK_MSG(tok.size() == 5, "bad union record: " + line);
      UnionRec u;
      FDB_CHECK_MSG(ParseInt64(tok[1], &u.id), "bad union id");
      int64_t node;
      FDB_CHECK_MSG(ParseInt64(Field(tok[2], "node"), &node) && node >= 0 &&
                        node <= kMaxNodeId,
                    "bad node ref");
      u.node = static_cast<int>(node);
      u.values = ParseIntList(Field(tok[3], "values"));
      u.children = ParseIntList(Field(tok[4], "children"));
      unions.push_back(std::move(u));
    } else if (kind == "uroot") {
      FDB_CHECK_MSG(tok.size() == 2, "bad uroot record: " + line);
      int64_t id;
      FDB_CHECK_MSG(ParseInt64(tok[1], &id), "bad uroot id");
      uroots.push_back(id);
    } else if (kind == "end") {
      saw_end = true;
      break;
    } else {
      throw FdbError("unknown record kind: " + kind);
    }
  }
  FDB_CHECK_MSG(saw_end, "truncated f-representation (missing 'end')");
  FDB_CHECK_MSG(saw_state, "missing empty/nonempty record");

  // Rebuild the tree with the original node ids (the pool may have gaps
  // where dead nodes lived; re-create placeholders and kill them).
  int max_id = -1;
  for (const NodeRec& n : nodes) max_id = std::max(max_id, n.id);
  FTree tree;
  std::vector<bool> alive(static_cast<size_t>(max_id) + 1, false);
  for (int i = 0; i <= max_id; ++i) {
    tree.NewNode(AttrSet::Of({0}), AttrSet{}, RelSet::Of({0}),
                 RelSet::Of({0}));
  }
  for (const NodeRec& n : nodes) {
    FDB_CHECK_MSG(n.id >= 0 && n.id <= max_id, "node id out of range");
    FDB_CHECK_MSG(!alive[static_cast<size_t>(n.id)],
                  "duplicate node record for id " + std::to_string(n.id));
    FTreeNode& nd = tree.node(n.id);
    nd.attrs = AttrSet(n.attrs);
    nd.visible = AttrSet(n.visible);
    nd.cover_rels = RelSet(n.cover);
    nd.dep_rels = RelSet(n.dep);
    nd.constant = n.constant;
    alive[static_cast<size_t>(n.id)] = true;
  }
  for (int i = 0; i <= max_id; ++i) {
    tree.node(i).alive = alive[static_cast<size_t>(i)];
  }
  for (const NodeRec& n : nodes) {
    if (n.parent >= 0) {
      FDB_CHECK_MSG(n.parent <= max_id && alive[static_cast<size_t>(n.parent)],
                    "dangling parent reference");
      tree.node(n.id).parent = n.parent;
      tree.node(n.parent).children.push_back(n.id);
    }
  }
  {
    std::vector<char> is_root(static_cast<size_t>(max_id) + 1, 0);
    for (int r : troots) {
      FDB_CHECK_MSG(r <= max_id && alive[static_cast<size_t>(r)],
                    "dangling troot reference");
      FDB_CHECK_MSG(!is_root[static_cast<size_t>(r)],
                    "duplicate troot record");
      is_root[static_cast<size_t>(r)] = 1;
      tree.AttachRoot(r);
    }
  }
  // Reject parent cycles and detached alive nodes: every alive node must be
  // reachable from a root through the children lists. A cyclic parent chain
  // would otherwise pass the shallow Validate() below (every member of the
  // cycle has a consistent parent) and then hang the CountTuples DP.
  {
    size_t reached = 0;
    std::vector<char> seen(static_cast<size_t>(max_id) + 1, 0);
    std::vector<int> stack(tree.roots().begin(), tree.roots().end());
    while (!stack.empty()) {
      int id = stack.back();
      stack.pop_back();
      if (seen[static_cast<size_t>(id)]) continue;
      seen[static_cast<size_t>(id)] = 1;
      ++reached;
      for (int c : tree.node(id).children) stack.push_back(c);
    }
    FDB_CHECK_MSG(reached == nodes.size(),
                  "cyclic parent chain or alive node unreachable from roots");
  }

  FRep rep(std::move(tree));
  if (!empty) {
    rep.MarkNonEmpty();
    const size_t n_unions = unions.size();
    // Ids are dense by construction of the writer (but records may arrive in
    // any order): index by id.
    std::vector<const UnionRec*> by_id(n_unions, nullptr);
    std::vector<std::vector<size_t>> of_node(static_cast<size_t>(max_id) + 1);
    for (const UnionRec& u : unions) {
      FDB_CHECK_MSG(u.id >= 0 && u.id < static_cast<int64_t>(n_unions) &&
                        by_id[static_cast<size_t>(u.id)] == nullptr,
                    "union ids must be dense");
      // Checked before anything dereferences the binding through
      // FTree::node(): an out-of-pool id would read out of bounds.
      FDB_CHECK_MSG(u.node <= max_id && alive[static_cast<size_t>(u.node)],
                    "union bound to missing tree node");
      by_id[static_cast<size_t>(u.id)] = &u;
      of_node[static_cast<size_t>(u.node)].push_back(static_cast<size_t>(u.id));
    }
    // Committed ids must put children before parents, and a child record
    // is bound to a child tree node: committing the records node by node
    // in reverse pre-order commits every child before its parent.
    std::vector<uint32_t> committed(n_unions);  // record id -> union id
    const std::vector<int> order = rep.tree().PreOrder();
    for (auto n = order.rbegin(); n != order.rend(); ++n) {
      const std::vector<int>& ch = rep.tree().node(*n).children;
      for (size_t i : of_node[static_cast<size_t>(*n)]) {
        const UnionRec& u = *by_id[i];
        FDB_CHECK_MSG(u.children.size() == u.values.size() * ch.size(),
                      "child slot count mismatch");
        UnionBuilder nu = rep.StartUnion(u.node);
        for (int64_t v : u.values) nu.AddValue(v);
        for (size_t s = 0; s < u.children.size(); ++s) {
          const int64_t c = u.children[s];
          FDB_CHECK_MSG(c >= 0 && c < static_cast<int64_t>(n_unions),
                        "dangling child union reference");
          FDB_CHECK_MSG(by_id[static_cast<size_t>(c)]->node ==
                            ch[s % ch.size()],
                        "child union bound to wrong tree node");
          nu.AddChild(committed[static_cast<size_t>(c)]);
        }
        committed[i] = nu.Finish();
      }
    }
    for (int64_t r : uroots) {
      FDB_CHECK_MSG(r >= 0 && r < static_cast<int64_t>(n_unions),
                    "dangling root union reference");
      rep.roots().push_back(committed[static_cast<size_t>(r)]);
    }
  }
  rep.Validate();
  FDB_VALIDATE_REP(rep);
  return rep;
}

void WriteFRepFile(const std::string& path, const FRep& rep) {
  std::ofstream out(path);
  FDB_CHECK_MSG(out.good(), "cannot open file for writing: " + path);
  WriteFRep(out, rep);
}

FRep ReadFRepFile(const std::string& path) {
  std::ifstream in(path);
  FDB_CHECK_MSG(in.good(), "cannot open file: " + path);
  return ReadFRep(in);
}

}  // namespace fdb
