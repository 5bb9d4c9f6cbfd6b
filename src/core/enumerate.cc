#include "core/enumerate.h"

#include <algorithm>

namespace fdb {

AttrId FrameOrderKey(const FTree& t, int n) {
  const AttrSet vis = t.node(n).visible;
  return vis.Empty() ? static_cast<AttrId>(kMaxAttrs) : vis.Min();
}

std::vector<PreOrderFrame> BuildPreOrderFrames(const FTree& t,
                                               const std::vector<char>* keep) {
  // Pre-order position of each node: the tie-break between invisible nodes.
  const std::vector<int> pre = t.PreOrder();
  std::vector<size_t> rank(t.pool_size(), 0);
  for (size_t i = 0; i < pre.size(); ++i) {
    rank[static_cast<size_t>(pre[i])] = i;
  }
  auto before = [&](int x, int y) {
    const AttrId kx = FrameOrderKey(t, x), ky = FrameOrderKey(t, y);
    if (kx != ky) return kx < ky;
    return rank[static_cast<size_t>(x)] < rank[static_cast<size_t>(y)];
  };
  std::vector<PreOrderFrame> frames;
  frames.reserve(pre.size());
  std::vector<int> frame_of(t.pool_size(), -1);
  // Nodes whose parent already has a frame. Trees have at most kMaxAttrs
  // nodes, so a linear scan per pick is cheap.
  std::vector<int> ready = t.roots();
  while (!ready.empty()) {
    const auto it = std::min_element(ready.begin(), ready.end(), before);
    const int n = *it;
    ready.erase(it);
    if (keep != nullptr && !(*keep)[static_cast<size_t>(n)]) continue;
    const std::vector<int>& children = t.node(n).children;
    ready.insert(ready.end(), children.begin(), children.end());
    PreOrderFrame f;
    f.node = n;
    int p = t.node(n).parent;
    if (p == -1) {
      f.parent_pos = -1;
      const auto& roots = t.roots();
      f.slot = static_cast<size_t>(
          std::find(roots.begin(), roots.end(), n) - roots.begin());
    } else {
      f.parent_pos = frame_of[static_cast<size_t>(p)];
      const auto& ch = t.node(p).children;
      f.slot = static_cast<size_t>(
          std::find(ch.begin(), ch.end(), n) - ch.begin());
    }
    frame_of[static_cast<size_t>(n)] = static_cast<int>(frames.size());
    frames.push_back(f);
  }
  return frames;
}

std::vector<char> VisibleKeepMask(const FTree& t) {
  // A subtree is kept iff it contains a visible attribute: its assignments
  // never change the visible tuple otherwise, so enumerating it would only
  // repeat it.
  std::vector<char> keep(t.pool_size(), 1);
  std::vector<int> order = t.PreOrder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const FTreeNode& nd = t.node(*it);
    bool vis = !nd.visible.Empty();
    for (int c : nd.children) vis = vis || keep[static_cast<size_t>(c)];
    keep[static_cast<size_t>(*it)] = vis ? 1 : 0;
  }
  return keep;
}

}  // namespace fdb
