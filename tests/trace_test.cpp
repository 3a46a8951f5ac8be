//===- tests/trace_test.cpp - Trace module unit tests -------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "EventNames.h"
#include "runtime/Execution.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace narada;

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "events are plain records copied on every VM step");
static_assert(sizeof(TraceEvent) <= 96, "an event fits in 96 bytes");
static_assert(!std::is_copy_constructible_v<Trace> &&
                  !std::is_copy_assignable_v<Trace>,
              "a trace is never copied");
static_assert(std::is_move_constructible_v<Trace> &&
                  std::is_move_assignable_v<Trace>,
              "a trace moves");

namespace {

EventNames Names;

TraceEvent makeAccess(EventKind Kind, ObjectId Obj, const std::string &Field,
                      uint64_t Label) {
  TraceEvent E;
  E.Kind = Kind;
  E.Obj = Obj;
  E.Member = Names(Field);
  E.Label = Label;
  E.ClassName = Names("C");
  return E;
}

/// True when \p Name is present and equals \p Expected.
bool named(const std::string *Name, const std::string &Expected) {
  return Name && *Name == Expected;
}

} // namespace

TEST(TraceTest, AppendAndQuery) {
  Trace T;
  EXPECT_TRUE(T.empty());
  T.append(makeAccess(EventKind::ReadField, 1, "f", 1));
  T.append(makeAccess(EventKind::WriteField, 1, "f", 2));
  T.append(makeAccess(EventKind::ReadElem, 2, "", 3));
  EXPECT_EQ(T.size(), 3u);
  EXPECT_EQ(T.eventsOfKind(EventKind::ReadField).size(), 1u);
  EXPECT_EQ(T.accesses().size(), 3u);
  T.clear();
  EXPECT_TRUE(T.empty());
}

TEST(TraceTest, AccessPredicates) {
  TraceEvent Read = makeAccess(EventKind::ReadField, 1, "f", 1);
  EXPECT_TRUE(Read.isAccess());
  EXPECT_FALSE(Read.isWrite());
  EXPECT_FALSE(Read.isElemAccess());

  TraceEvent WriteElem = makeAccess(EventKind::WriteElem, 1, "", 2);
  EXPECT_TRUE(WriteElem.isAccess());
  EXPECT_TRUE(WriteElem.isWrite());
  EXPECT_TRUE(WriteElem.isElemAccess());

  TraceEvent Lock;
  Lock.Kind = EventKind::Lock;
  EXPECT_FALSE(Lock.isAccess());
}

TEST(TraceTest, FaultQueries) {
  Trace T;
  EXPECT_FALSE(T.hasFault());
  TraceEvent Fault;
  Fault.Kind = EventKind::Fault;
  Fault.Message = Names("null dereference");
  T.append(Fault);
  EXPECT_TRUE(T.hasFault());
  ASSERT_EQ(T.faultMessages().size(), 1u);
  EXPECT_EQ(T.faultMessages()[0], "null dereference");
}

TEST(TraceTest, StaticLabelWithoutFunction) {
  TraceEvent E;
  EXPECT_EQ(E.staticLabel(), "<unknown>");
}

TEST(TraceTest, EventKindNamesAreDistinct) {
  std::set<std::string> Names;
  for (EventKind K :
       {EventKind::Alloc, EventKind::ReadField, EventKind::WriteField,
        EventKind::ReadElem, EventKind::WriteElem, EventKind::Lock,
        EventKind::Unlock, EventKind::ClientCall, EventKind::ClientCallEnd,
        EventKind::ThreadStart, EventKind::ThreadEnd, EventKind::Fault})
    Names.insert(eventKindName(K));
  EXPECT_EQ(Names.size(), 12u);
}

TEST(TraceTest, ObserverMuxFansOut) {
  Trace A, B;
  TraceRecorder RecA(A), RecB(B);
  ObserverMux Mux;
  Mux.add(&RecA);
  Mux.add(&RecB);
  Mux.onEvent(makeAccess(EventKind::ReadField, 1, "f", 1));
  EXPECT_EQ(A.size(), 1u);
  EXPECT_EQ(B.size(), 1u);
}

TEST(TraceTest, PrintEventFormats) {
  TraceEvent Write = makeAccess(EventKind::WriteField, 7, "count", 42);
  Write.Thread = 2;
  Write.Val = Value::makeInt(5);
  std::string Line = printEvent(Write);
  EXPECT_NE(Line.find("write"), std::string::npos);
  EXPECT_NE(Line.find("@7.count"), std::string::npos);
  EXPECT_NE(Line.find("= 5"), std::string::npos);
  EXPECT_NE(Line.find("t2"), std::string::npos);

  TraceEvent Fault;
  Fault.Kind = EventKind::Fault;
  Fault.Message = Names("boom");
  EXPECT_NE(printEvent(Fault).find("boom"), std::string::npos);
}

TEST(TraceTest, PrintTraceOfRealExecution) {
  Result<CompiledProgram> P = compileProgram(
      "class A { field n: int;\n"
      "  method bump() synchronized { this.n = this.n + 1; } }\n"
      "test t { var a: A = new A; a.bump(); }\n");
  ASSERT_TRUE(P.hasValue());
  Result<TestRun> Run = runTestSequential(*P->Module, "t");
  ASSERT_TRUE(Run.hasValue());
  std::string Text = printTrace(Run->TheTrace);
  EXPECT_NE(Text.find("thread_start"), std::string::npos);
  EXPECT_NE(Text.find("client_call"), std::string::npos);
  EXPECT_NE(Text.find("lock"), std::string::npos);
  EXPECT_NE(Text.find("unlock"), std::string::npos);
  EXPECT_NE(Text.find("A.bump"), std::string::npos);
  EXPECT_NE(Text.find("thread_end"), std::string::npos);
}

TEST(TraceTest, SequentialTraceEventOrdering) {
  // For a sequential run, the client_call must precede the accesses of the
  // invoked method, which precede client_call_end.
  Result<CompiledProgram> P = compileProgram(
      "class A { field n: int;\n"
      "  method set(v: int) { this.n = v; } }\n"
      "test t { var a: A = new A; a.set(3); }\n");
  ASSERT_TRUE(P.hasValue());
  Result<TestRun> Run = runTestSequential(*P->Module, "t");
  ASSERT_TRUE(Run.hasValue());
  int CallIdx = -1, WriteIdx = -1, EndIdx = -1;
  const Trace &Events = Run->TheTrace;
  for (int I = 0; I < static_cast<int>(Events.size()); ++I) {
    if (Events[I].Kind == EventKind::ClientCall &&
        named(Events[I].Member, "set"))
      CallIdx = I;
    if (Events[I].Kind == EventKind::WriteField &&
        named(Events[I].Member, "n"))
      WriteIdx = I;
    if (Events[I].Kind == EventKind::ClientCallEnd)
      EndIdx = I;
  }
  ASSERT_GE(CallIdx, 0);
  ASSERT_GE(WriteIdx, 0);
  ASSERT_GE(EndIdx, 0);
  EXPECT_LT(CallIdx, WriteIdx);
  EXPECT_LT(WriteIdx, EndIdx);
}

TEST(TraceTest, ThreadStartCarriesParent) {
  Result<CompiledProgram> P = compileProgram(
      "class A { method m() { } }\n"
      "test t { var a: A = new A; spawn { a.m(); } }\n");
  ASSERT_TRUE(P.hasValue());
  Result<TestRun> Run = runTestSequential(*P->Module, "t");
  ASSERT_TRUE(Run.hasValue());
  auto Starts = Run->TheTrace.eventsOfKind(EventKind::ThreadStart);
  ASSERT_EQ(Starts.size(), 2u);
  EXPECT_EQ(Starts[0]->ParentThread, NoThread) << "root thread";
  EXPECT_EQ(Starts[1]->ParentThread, Starts[0]->Thread)
      << "spawned thread records its parent";
}

TEST(TraceTest, RunTestRecordsOnlyThroughAnAttachedRecorder) {
  Result<CompiledProgram> P = compileProgram(
      "class A { field n: int;\n"
      "  method bump() synchronized { this.n = this.n + 1; } }\n"
      "test t { var a: A = new A; a.bump(); spawn { a.bump(); } }\n");
  ASSERT_TRUE(P.hasValue());

  RoundRobinPolicy Bare;
  Result<TestRun> Unobserved = runTest(*P->Module, "t", Bare);
  ASSERT_TRUE(Unobserved.hasValue());
  EXPECT_TRUE(Unobserved->TheTrace.empty());

  Trace Recorded;
  TraceRecorder Recorder(Recorded);
  RoundRobinPolicy Policy;
  Result<TestRun> Observed = runTest(*P->Module, "t", Policy, 1, &Recorder);
  ASSERT_TRUE(Observed.hasValue());
  EXPECT_TRUE(Observed->TheTrace.empty());

  Result<TestRun> Sequential = runTestSequential(*P->Module, "t");
  ASSERT_TRUE(Sequential.hasValue());
  ASSERT_FALSE(Recorded.empty());
  EXPECT_EQ(printTrace(Sequential->TheTrace), printTrace(Recorded));
}

TEST(TraceTest, LabelMatcherInvertsProgramPointLabels) {
  IRFunction Put("Map.put", IRFunction::Kind::Method);
  IRFunction Other("Map.get", IRFunction::Kind::Method);
  for (uint32_t Pc : {0u, 7u, 42u, 4294967295u}) {
    LabelMatcher Match(ProgramPoint{&Put, Pc}.label());
    EXPECT_TRUE(Match.matches(&Put, Pc)) << Pc;
    EXPECT_FALSE(Match.matches(&Put, Pc + 1)) << Pc;
    EXPECT_FALSE(Match.matches(&Other, Pc)) << Pc;
    EXPECT_FALSE(Match.matches(nullptr, Pc)) << Pc;
  }
  // Anything label() cannot produce for a function matches nothing.
  for (const char *Bad : {"Map.put:07", "Map.put:", ":7", "Map.put:7x",
                          "Map.put:-7", "Map.put:4294967296", "Map.put",
                          "<unknown>"})
    for (uint32_t Pc : {0u, 7u})
      EXPECT_FALSE(LabelMatcher(Bad).matches(&Put, Pc)) << Bad;
}

TEST(TraceTest, MovedTraceOwnsArgumentsAndFaultMessage) {
  Result<CompiledProgram> P = compileProgram(
      "class A { field x: int;\n"
      "  method m(v: int, o: A) { this.x = v; } }\n"
      "test t { var a: A = new A; a.m(42, a); var n: A = null; n.m(7, a); }\n");
  ASSERT_TRUE(P.hasValue());
  Trace Moved;
  std::string FaultMessage;
  {
    // The VM and its frames are gone once runTestSequential returns; the
    // run itself is gone after this scope.
    Result<TestRun> Run = runTestSequential(*P->Module, "t");
    ASSERT_TRUE(Run.hasValue());
    ASSERT_EQ(Run->Result.FaultMessages.size(), 1u);
    FaultMessage = Run->Result.FaultMessages[0];
    Moved = std::move(Run->TheTrace);
  }

  std::vector<const TraceEvent *> Calls = Moved.eventsOfKind(EventKind::ClientCall);
  ASSERT_EQ(Calls.size(), 1u);
  const TraceEvent &Call = *Calls[0];
  EXPECT_TRUE(named(Call.Member, "m"));
  EXPECT_TRUE(named(Call.ClassName, "A"));
  ASSERT_EQ(Call.args().size(), 3u); // receiver, v, o
  EXPECT_EQ(Call.args()[0], Value::makeRef(Call.Receiver));
  EXPECT_EQ(Call.args()[1], Value::makeInt(42));
  EXPECT_EQ(Call.args()[2], Value::makeRef(Call.Receiver));

  ASSERT_EQ(Moved.faultMessages(), std::vector<std::string>{FaultMessage});
  EXPECT_NE(FaultMessage.find("null dereference"), std::string::npos);
  EXPECT_NE(printTrace(Moved).find(FaultMessage), std::string::npos);
}

TEST(TraceTest, TraceKeepsEventsAndPayloadsAcrossGrowth) {
  // Enough events that the event vector reallocates many times, each
  // appended from a buffer that is then reused.
  const size_t N = 5000;
  Trace Grown;
  std::vector<Value> Args(3);
  std::string Message;
  for (size_t I = 0; I != N; ++I) {
    TraceEvent E;
    E.Label = I + 1;
    if (I % 7 == 0) {
      Message = "fault " + std::to_string(I);
      E.Kind = EventKind::Fault;
      E.Message = &Message;
    } else {
      Args = {Value::makeRef(1), Value::makeInt(int64_t(I)),
              Value::makeBool(I % 2)};
      E.Kind = EventKind::ClientCall;
      E.Member = Names("m");
      E.Args = Args.data();
      E.NumArgs = static_cast<uint32_t>(Args.size());
    }
    Grown.append(E);
  }
  Args.assign(3, Value::makeNull());
  Message.clear();

  Trace T = std::move(Grown);
  ASSERT_EQ(T.size(), N);
  // The moved-from trace is empty and records again.
  EXPECT_TRUE(Grown.empty());
  Grown.append(TraceEvent());
  EXPECT_EQ(Grown.size(), 1u);

  size_t I = 0;
  for (const TraceEvent &E : T) {
    ASSERT_EQ(E.Label, I + 1);
    if (I % 7 == 0) {
      ASSERT_TRUE(named(E.Message, "fault " + std::to_string(I)));
    } else {
      ASSERT_EQ(E.args().size(), 3u);
      EXPECT_EQ(E.args()[1], Value::makeInt(int64_t(I)));
      EXPECT_EQ(E.args()[2], Value::makeBool(I % 2));
    }
    ++I;
  }
  EXPECT_EQ(I, N);
  EXPECT_EQ(T.faultMessages().size(), (N + 6) / 7);
}
