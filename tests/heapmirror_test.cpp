//===- tests/heapmirror_test.cpp - Heap mirror unit tests ----------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "EventNames.h"
#include "analysis/HeapMirror.h"

#include <gtest/gtest.h>

using namespace narada;

namespace {

EventNames Names;

TraceEvent alloc(ObjectId Obj, const std::string &ClassName) {
  TraceEvent E;
  E.Kind = EventKind::Alloc;
  E.Obj = Obj;
  E.ClassName = Names(ClassName);
  return E;
}

TraceEvent write(ObjectId Obj, const std::string &Field, Value V) {
  TraceEvent E;
  E.Kind = EventKind::WriteField;
  E.Obj = Obj;
  E.Member = Names(Field);
  E.Val = V;
  return E;
}

} // namespace

TEST(HeapMirrorTest, TracksAllocations) {
  HeapMirror M;
  EXPECT_FALSE(M.knows(1));
  M.apply(alloc(1, "A"));
  EXPECT_TRUE(M.knows(1));
  ASSERT_NE(M.object(1).ClassName, nullptr);
  EXPECT_EQ(*M.object(1).ClassName, "A");
}

TEST(HeapMirrorTest, TracksFieldWrites) {
  HeapMirror M;
  M.apply(alloc(1, "A"));
  M.apply(alloc(2, "B"));
  M.apply(write(1, "b", Value::makeRef(2)));
  EXPECT_EQ(M.object(1).Fields.at("b").asRef(), 2u);

  // Overwrites replace.
  M.apply(write(1, "b", Value::makeNull()));
  EXPECT_TRUE(M.object(1).Fields.at("b").isNull());
}

TEST(HeapMirrorTest, IgnoresNonHeapEvents) {
  HeapMirror M;
  TraceEvent Lock;
  Lock.Kind = EventKind::Lock;
  Lock.Obj = 5;
  M.apply(Lock);
  EXPECT_FALSE(M.knows(5));
}

TEST(HeapMirrorTest, ResolveWalksFieldChains) {
  HeapMirror M;
  M.apply(alloc(1, "A"));
  M.apply(alloc(2, "B"));
  M.apply(alloc(3, "C"));
  M.apply(write(1, "b", Value::makeRef(2)));
  M.apply(write(2, "c", Value::makeRef(3)));

  EXPECT_EQ(M.resolve(1, {}), 1u);
  EXPECT_EQ(M.resolve(1, {"b"}), 2u);
  EXPECT_EQ(M.resolve(1, {"b", "c"}), 3u);
  EXPECT_EQ(M.resolve(1, {"missing"}), NoObject);
  EXPECT_EQ(M.resolve(1, {"b", "c", "deeper"}), NoObject);
}

TEST(HeapMirrorTest, ResolveThroughNullIsNoObject) {
  HeapMirror M;
  M.apply(alloc(1, "A"));
  M.apply(write(1, "next", Value::makeNull()));
  EXPECT_EQ(M.resolve(1, {"next"}), NoObject);
}

TEST(HeapMirrorTest, ReachableFromSingleRoot) {
  HeapMirror M;
  M.apply(alloc(1, "A"));
  M.apply(alloc(2, "B"));
  M.apply(alloc(3, "C"));
  M.apply(alloc(4, "D")); // Unreachable.
  M.apply(write(1, "b", Value::makeRef(2)));
  M.apply(write(2, "c", Value::makeRef(3)));

  auto Reach = M.reachableFrom({{0, 1}});
  ASSERT_EQ(Reach.size(), 3u);
  EXPECT_EQ(Reach.at(1).str(), "I0");
  EXPECT_EQ(Reach.at(2).str(), "I0.b");
  EXPECT_EQ(Reach.at(3).str(), "I0.b.c");
  EXPECT_FALSE(Reach.count(4));
}

TEST(HeapMirrorTest, ReachableFromPrefersShortestPath) {
  HeapMirror M;
  M.apply(alloc(1, "A"));
  M.apply(alloc(2, "B"));
  M.apply(write(1, "direct", Value::makeRef(2)));
  M.apply(write(2, "self", Value::makeRef(2))); // Cycle, longer path.

  auto Reach = M.reachableFrom({{0, 1}});
  EXPECT_EQ(Reach.at(2).str(), "I0.direct");
}

TEST(HeapMirrorTest, ReachableFromMultipleRoots) {
  HeapMirror M;
  M.apply(alloc(1, "A"));
  M.apply(alloc(2, "B"));
  M.apply(alloc(3, "Shared"));
  M.apply(write(1, "s", Value::makeRef(3)));
  M.apply(write(2, "s", Value::makeRef(3)));

  // Receiver (root 0) wins over the argument for the shared object because
  // multi-source BFS visits earlier roots first at equal depth.
  auto Reach = M.reachableFrom({{0, 1}, {1, 2}});
  EXPECT_EQ(Reach.at(1).str(), "I0");
  EXPECT_EQ(Reach.at(2).str(), "I1");
  EXPECT_EQ(Reach.at(3).str(), "I0.s");
}

TEST(HeapMirrorTest, CyclesTerminate) {
  HeapMirror M;
  M.apply(alloc(1, "Node"));
  M.apply(alloc(2, "Node"));
  M.apply(write(1, "next", Value::makeRef(2)));
  M.apply(write(2, "next", Value::makeRef(1)));

  auto Reach = M.reachableFrom({{0, 1}});
  EXPECT_EQ(Reach.size(), 2u);
}

TEST(HeapMirrorTest, NullRootsAreIgnored) {
  HeapMirror M;
  auto Reach = M.reachableFrom({{0, NoObject}});
  EXPECT_TRUE(Reach.empty());
}

TEST(HeapMirrorTest, LateSeenObjectsGetClassFromWrite) {
  // Objects staged by the harness may first appear as write targets.
  HeapMirror M;
  M.apply(write(9, "f", Value::makeInt(1)));
  TraceEvent W = write(9, "f", Value::makeInt(2));
  W.ClassName = Names("Late");
  M.apply(W);
  EXPECT_TRUE(M.knows(9));
  ASSERT_NE(M.object(9).ClassName, nullptr);
  EXPECT_EQ(*M.object(9).ClassName, "Late");
}
