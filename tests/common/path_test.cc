#include "src/common/path.h"

#include <gtest/gtest.h>

namespace itc {
namespace {

TEST(SplitPathTest, Basic) {
  EXPECT_EQ(SplitPath("/a/b/c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitPath("a/b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitPath("/"), (std::vector<std::string>{}));
  EXPECT_EQ(SplitPath(""), (std::vector<std::string>{}));
}

TEST(SplitPathTest, CollapsesDuplicateSlashes) {
  EXPECT_EQ(SplitPath("//a///b//"), (std::vector<std::string>{"a", "b"}));
}

// The splitter SplitPath was before it ran on PathCursor: the oracle both are
// checked against.
std::vector<std::string> ReferenceSplit(std::string_view path) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    if (j > i) out.emplace_back(path.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> CursorComponents(std::string_view path) {
  std::vector<std::string> out;
  PathCursor cursor(path);
  for (std::string_view c; cursor.Next(&c);) out.emplace_back(c);
  return out;
}

TEST(PathCursorTest, AgreesWithTheReferenceSplitter) {
  for (const char* p : {"", "/", "//", ".", "..", "/.", "/..", "a", "/a", "/a/", "/a//",
                        "a/b", "/a/b/c", "//a///b//", "/a/./b/../c", "./a/../b/", "/../..//.",
                        "x/./y/..", "/long-name/with.dots/and..dots"}) {
    EXPECT_EQ(CursorComponents(p), ReferenceSplit(p)) << p;
    EXPECT_EQ(SplitPath(p), ReferenceSplit(p)) << p;
  }
}

TEST(PathCursorTest, ComponentsAreViewsIntoThePath) {
  const std::string path = "/a/bc";
  PathCursor cursor(path);
  std::string_view c;
  ASSERT_TRUE(cursor.Next(&c));
  EXPECT_EQ(c.data(), path.data() + 1);
  ASSERT_TRUE(cursor.Next(&c));
  EXPECT_EQ(c.data(), path.data() + 3);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(cursor.Next(&c));
}

TEST(PathCursorTest, RestAndAtEndSeeTrailingSlashesAsTheEnd) {
  PathCursor cursor("/a/b/c//d/");
  std::string_view c;
  ASSERT_TRUE(cursor.Next(&c));
  ASSERT_TRUE(cursor.Next(&c));
  EXPECT_EQ(c, "b");
  EXPECT_EQ(cursor.rest(), "/c//d/");
  EXPECT_FALSE(cursor.AtEnd());
  ASSERT_TRUE(cursor.Next(&c));
  ASSERT_TRUE(cursor.Next(&c));
  EXPECT_EQ(c, "d");
  EXPECT_EQ(cursor.rest(), "/");
  EXPECT_TRUE(cursor.AtEnd());
  EXPECT_FALSE(cursor.Next(&c));
  EXPECT_EQ(cursor.rest(), "");
  EXPECT_TRUE(PathCursor("").AtEnd());
  EXPECT_TRUE(PathCursor("///").AtEnd());
}

TEST(BreadcrumbsTest, SpillsPastItsInlineEntriesAndComesBack) {
  Breadcrumbs<int, 2> crumbs;
  EXPECT_TRUE(crumbs.empty());
  for (int i = 0; i < 5; ++i) crumbs.push_back(i);
  ASSERT_EQ(crumbs.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(crumbs[i], i);
  for (int i = 4; i >= 0; --i) {
    EXPECT_EQ(crumbs.back(), i);
    crumbs.pop_back();
  }
  EXPECT_TRUE(crumbs.empty());
  crumbs.push_back(7);
  crumbs.push_back(8);
  crumbs.push_back(9);
  crumbs.clear();
  EXPECT_TRUE(crumbs.empty());
  crumbs.push_back(1);
  EXPECT_EQ(crumbs.back(), 1);
}

TEST(PathConcatTest, HandlesSlashes) {
  EXPECT_EQ(PathConcat("/a", "b"), "/a/b");
  EXPECT_EQ(PathConcat("/a/", "/b"), "/a/b");
  EXPECT_EQ(PathConcat("/a//", "//b/c"), "/a/b/c");
  EXPECT_EQ(PathConcat("", "b"), "/b");
}

TEST(PathHasPrefixTest, Matches) {
  EXPECT_TRUE(PathHasPrefix("/a/b", "/a"));
  EXPECT_TRUE(PathHasPrefix("/a", "/a"));
  EXPECT_TRUE(PathHasPrefix("/a/b", "/"));
  EXPECT_FALSE(PathHasPrefix("/ab", "/a"));
  EXPECT_FALSE(PathHasPrefix("/a", "/a/b"));
}

TEST(BasenameDirnameTest, Basic) {
  EXPECT_EQ(Basename("/a/b/c"), "c");
  EXPECT_EQ(Basename("/a"), "a");
  EXPECT_EQ(Basename("/"), "");
  EXPECT_EQ(Dirname("/a/b/c"), "/a/b");
  EXPECT_EQ(Dirname("/a"), "/");
  EXPECT_EQ(Dirname("/"), "/");
}

TEST(BasenameDirnameTest, TrailingSlashes) {
  EXPECT_EQ(Basename("/a/b/"), "b");
  EXPECT_EQ(Dirname("/a/b/"), "/a");
}

TEST(IsValidNameTest, AcceptsOrdinaryNames) {
  EXPECT_TRUE(IsValidName("foo"));
  EXPECT_TRUE(IsValidName("a.b-c_d"));
  EXPECT_TRUE(IsValidName(std::string(kMaxNameLength, 'x')));
}

TEST(IsValidNameTest, RejectsBadNames) {
  EXPECT_FALSE(IsValidName(""));
  EXPECT_FALSE(IsValidName("."));
  EXPECT_FALSE(IsValidName(".."));
  EXPECT_FALSE(IsValidName("a/b"));
  EXPECT_FALSE(IsValidName(std::string(kMaxNameLength + 1, 'x')));
}

}  // namespace
}  // namespace itc
