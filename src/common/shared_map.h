// Structure-sharing ordered maps for replicated snapshots.
//
// The location database (Section 3.1) and the protection database (Section
// 3.4) are replicated at every cluster server as immutable snapshots: a
// mutation at the master publishes a fresh snapshot to every server, and a
// reader holding an older one keeps an exact view of its version. With
// std::map each publication copied the whole database, so a campus whose
// set-up adds one user at a time paid O(N) per user. SharedMap removes that
// cost. It is an AVL tree whose nodes are immutable and shared, through
// std::shared_ptr<const Node>, by every copy of the map:
//
//   * copying a map is O(1): one reference-count increment;
//   * Set and Erase copy only the O(log n) nodes on the path to the key
//     (path copying), so no other copy ever sees the change;
//   * Find is O(log n), and iteration visits entries in key order, as
//     std::map's does.
//
// (Not "persistent": in this code base that word means durable storage.)
//
// Values are read through const pointers and references only. To change a
// value, copy it, edit the copy and Set it back. Set and Erase invalidate
// the iterators of the map they modify, not those of its copies.

#ifndef SRC_COMMON_SHARED_MAP_H_
#define SRC_COMMON_SHARED_MAP_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

namespace itc {

template <typename K, typename V, typename Less = std::less<K>>
class SharedMap {
 public:
  using value_type = std::pair<const K, V>;

 private:
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;
  struct Node {
    Node(const value_type& e, NodePtr l, NodePtr r)
        : entry(e),
          left(std::move(l)),
          right(std::move(r)),
          height(1 + std::max(Height(left), Height(right))) {}
    value_type entry;
    NodePtr left;
    NodePtr right;
    int height;
  };

 public:
  // In-order traversal; keeps the ancestors still to visit, so advancing is
  // amortized O(1) and the iterator holds O(log n) pointers.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SharedMap::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;
    reference operator*() const { return pending_.back()->entry; }
    pointer operator->() const { return &pending_.back()->entry; }
    const_iterator& operator++() {
      const Node* done = pending_.back();
      pending_.pop_back();
      PushLeftSpine(done->right.get());
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      if (a.pending_.empty() || b.pending_.empty()) {
        return a.pending_.empty() == b.pending_.empty();
      }
      return a.pending_.back() == b.pending_.back();
    }

   private:
    friend class SharedMap;
    explicit const_iterator(const Node* root) { PushLeftSpine(root); }
    void PushLeftSpine(const Node* n) {
      for (; n != nullptr; n = n->left.get()) pending_.push_back(n);
    }
    // The current node last; empty at end().
    std::vector<const Node*> pending_;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const_iterator begin() const { return const_iterator(root_.get()); }
  const_iterator end() const { return const_iterator(); }

  // The value stored under `key`, or nullptr. The pointer stays valid while
  // this map (or any copy sharing the entry) holds the entry.
  const V* Find(const K& key) const {
    const Node* n = root_.get();
    while (n != nullptr) {
      if (Less{}(key, n->entry.first)) {
        n = n->left.get();
      } else if (Less{}(n->entry.first, key)) {
        n = n->right.get();
      } else {
        return &n->entry.second;
      }
    }
    return nullptr;
  }
  bool contains(const K& key) const { return Find(key) != nullptr; }

  // Inserts or replaces the entry for `key`.
  void Set(K key, V value) {
    bool added = false;
    root_ = Insert(root_, value_type(std::move(key), std::move(value)), &added);
    if (added) size_ += 1;
  }

  // Removes the entry for `key`; false if there was none.
  bool Erase(const K& key) {
    bool removed = false;
    NodePtr root = Remove(root_, key, &removed);
    if (!removed) return false;
    root_ = std::move(root);
    size_ -= 1;
    return true;
  }

 private:
  static int Height(const NodePtr& n) { return n == nullptr ? 0 : n->height; }

  static NodePtr Make(const value_type& e, NodePtr l, NodePtr r) {
    return std::make_shared<const Node>(e, std::move(l), std::move(r));
  }

  // A node holding `e` over subtrees whose heights differ by at most two,
  // rotated back into AVL balance.
  static NodePtr Balance(const value_type& e, NodePtr l, NodePtr r) {
    if (Height(l) > Height(r) + 1) {
      if (Height(l->left) >= Height(l->right)) {
        return Make(l->entry, l->left, Make(e, l->right, std::move(r)));
      }
      const Node& lr = *l->right;
      return Make(lr.entry, Make(l->entry, l->left, lr.left), Make(e, lr.right, std::move(r)));
    }
    if (Height(r) > Height(l) + 1) {
      if (Height(r->right) >= Height(r->left)) {
        return Make(r->entry, Make(e, std::move(l), r->left), r->right);
      }
      const Node& rl = *r->left;
      return Make(rl.entry, Make(e, std::move(l), rl.left), Make(r->entry, rl.right, r->right));
    }
    return Make(e, std::move(l), std::move(r));
  }

  static NodePtr Insert(const NodePtr& n, const value_type& e, bool* added) {
    if (n == nullptr) {
      *added = true;
      return Make(e, nullptr, nullptr);
    }
    if (Less{}(e.first, n->entry.first)) {
      return Balance(n->entry, Insert(n->left, e, added), n->right);
    }
    if (Less{}(n->entry.first, e.first)) {
      return Balance(n->entry, n->left, Insert(n->right, e, added));
    }
    return Make(e, n->left, n->right);
  }

  // Returns the new subtree; leaves `n` itself as it was when `key` is absent.
  static NodePtr Remove(const NodePtr& n, const K& key, bool* removed) {
    if (n == nullptr) return nullptr;
    if (Less{}(key, n->entry.first)) {
      NodePtr l = Remove(n->left, key, removed);
      return *removed ? Balance(n->entry, std::move(l), n->right) : n;
    }
    if (Less{}(n->entry.first, key)) {
      NodePtr r = Remove(n->right, key, removed);
      return *removed ? Balance(n->entry, n->left, std::move(r)) : n;
    }
    *removed = true;
    if (n->left == nullptr) return n->right;
    if (n->right == nullptr) return n->left;
    const Node* successor = n->right.get();
    while (successor->left != nullptr) successor = successor->left.get();
    return Balance(successor->entry, n->left, RemoveMin(n->right));
  }

  static NodePtr RemoveMin(const NodePtr& n) {
    if (n->left == nullptr) return n->right;
    return Balance(n->entry, RemoveMin(n->left), n->right);
  }

  NodePtr root_;
  size_t size_ = 0;
};

// A SharedMap used as an ordered set: Set(key, {}) inserts.
template <typename K, typename Less = std::less<K>>
using SharedSet = SharedMap<K, std::monostate, Less>;

}  // namespace itc

#endif  // SRC_COMMON_SHARED_MAP_H_
