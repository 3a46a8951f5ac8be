//===- explore/ScheduleTrace.cpp - Replayable schedule traces ------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "explore/ScheduleTrace.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace narada;
using namespace narada::explore;

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string ScheduleTrace::serialize() const {
  std::ostringstream Out;
  Out << Schema << "\n";
  Out << "test " << TestName << "\n";
  Out << "seed " << RandSeed << "\n";
  for (const std::string &Key : RaceKeys)
    Out << "race " << Key << "\n";
  if (!PreemptSteps.empty()) {
    Out << "preempt-steps";
    for (uint64_t S : PreemptSteps)
      Out << " " << S;
    Out << "\n";
  }
  // Run-length encode the picks; chunk the line so long schedules stay
  // diffable.
  size_t I = 0;
  while (I < Picks.size()) {
    Out << "picks";
    unsigned OnLine = 0;
    while (I < Picks.size() && OnLine < 16) {
      ThreadId T = Picks[I];
      size_t J = I;
      while (J < Picks.size() && Picks[J] == T)
        ++J;
      Out << " " << T << "x" << (J - I);
      I = J;
      ++OnLine;
    }
    Out << "\n";
  }
  return Out.str();
}

namespace {

/// Parses a base-10 uint64; false on garbage or overflow.
bool parseU64(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  for (char C : Text)
    if (C < '0' || C > '9')
      return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text.c_str(), &End, 10);
  if (End == Text.c_str() || *End != '\0' || errno == ERANGE)
    return false;
  Out = Value;
  return true;
}

Error badLine(size_t LineNo, const std::string &Why) {
  return Error(formatString("schedule trace line %zu: %s",
                            LineNo, Why.c_str()));
}

} // namespace

Result<ScheduleTrace> ScheduleTrace::deserialize(const std::string &Text,
                                                 uint64_t MaxPicks) {
  ScheduleTrace Out;
  std::istringstream In(Text);
  std::string Line;
  size_t LineNo = 0;
  bool SawSchema = false, SawTest = false;
  while (std::getline(In, Line)) {
    ++LineNo;
    std::string_view Trimmed = trim(Line);
    if (Trimmed.empty() || Trimmed[0] == '#')
      continue;
    if (!SawSchema) {
      if (Trimmed != Schema)
        return badLine(LineNo, "not a " + std::string(Schema) + " document");
      SawSchema = true;
      continue;
    }
    std::vector<std::string> Words = split(std::string(Trimmed), ' ');
    Words.erase(std::remove_if(Words.begin(), Words.end(),
                               [](const std::string &W) { return W.empty(); }),
                Words.end());
    if (Words.empty())
      continue;
    const std::string &Directive = Words[0];
    if (Directive == "test") {
      if (Words.size() != 2)
        return badLine(LineNo, "'test' takes exactly one name");
      Out.TestName = Words[1];
      SawTest = true;
    } else if (Directive == "seed") {
      if (Words.size() != 2 || !parseU64(Words[1], Out.RandSeed))
        return badLine(LineNo, "'seed' takes one unsigned integer");
    } else if (Directive == "race") {
      if (Words.size() < 2)
        return badLine(LineNo, "'race' takes a race key");
      // Race keys contain no spaces today, but re-join defensively.
      std::vector<std::string> KeyWords(Words.begin() + 1, Words.end());
      Out.RaceKeys.push_back(join(KeyWords, " "));
    } else if (Directive == "preempt-steps") {
      for (size_t I = 1; I < Words.size(); ++I) {
        uint64_t Step = 0;
        if (!parseU64(Words[I], Step))
          return badLine(LineNo, "bad preempt step '" + Words[I] + "'");
        Out.PreemptSteps.push_back(Step);
      }
    } else if (Directive == "picks") {
      for (size_t I = 1; I < Words.size(); ++I) {
        size_t X = Words[I].find('x');
        uint64_t Tid = 0, Count = 0;
        if (X == std::string::npos ||
            !parseU64(Words[I].substr(0, X), Tid) ||
            !parseU64(Words[I].substr(X + 1), Count) || Count == 0)
          return badLine(LineNo, "bad picks token '" + Words[I] +
                                     "' (want <tid>x<count>)");
        if (Tid >= NoThread)
          return badLine(LineNo, "thread id in '" + Words[I] +
                                     "' is out of range");
        // Checked before expanding: Picks never holds more than MaxPicks.
        if (Count > MaxPicks - Out.Picks.size())
          return badLine(
              LineNo, formatString("more than %llu picks, the most a "
                                   "replay can consume",
                                   static_cast<unsigned long long>(MaxPicks)));
        Out.Picks.insert(Out.Picks.end(), Count, static_cast<ThreadId>(Tid));
      }
    } else {
      return badLine(LineNo, "unknown directive '" + Directive + "'");
    }
  }
  if (!SawSchema)
    return Error(formatString("schedule trace: missing %s header", Schema));
  if (!SawTest)
    return Error("schedule trace: missing 'test' directive");
  return Out;
}

Status ScheduleTrace::writeFile(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return Error("cannot write schedule trace '" + Path + "'");
  Out << serialize();
  Out.flush();
  if (!Out)
    return Error("failed writing schedule trace '" + Path + "'");
  return Status::success();
}

Result<ScheduleTrace> ScheduleTrace::readFile(const std::string &Path,
                                              uint64_t MaxPicks) {
  std::ifstream In(Path);
  if (!In)
    return Error("cannot open schedule trace '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return deserialize(Buffer.str(), MaxPicks);
}

//===----------------------------------------------------------------------===//
// Policies
//===----------------------------------------------------------------------===//

static bool contains(const std::vector<ThreadId> &Runnable, ThreadId T) {
  return std::find(Runnable.begin(), Runnable.end(), T) != Runnable.end();
}

ThreadId RecordingPolicy::pick(const std::vector<ThreadId> &Runnable, VM &M) {
  ThreadId T = Inner.pick(Runnable, M);
  if (Prev != NoThread && T != Prev && contains(Runnable, Prev))
    PreemptSteps.push_back(Picks.size());
  Prev = T;
  Picks.push_back(T);
  return T;
}

ScheduleTrace RecordingPolicy::trace(std::string TestName,
                                     uint64_t RandSeed) const {
  ScheduleTrace Out;
  Out.TestName = std::move(TestName);
  Out.RandSeed = RandSeed;
  Out.Picks = Picks;
  Out.PreemptSteps = PreemptSteps;
  return Out;
}

ThreadId ReplayPolicy::pick(const std::vector<ThreadId> &Runnable, VM &M) {
  if (Next < Trace.Picks.size()) {
    ThreadId Want = Trace.Picks[Next++];
    if (contains(Runnable, Want))
      return Prev = Want;
    Diverged = true;
  } else if (!Trace.Picks.empty()) {
    Exhausted = true;
  }
  // Degraded continuation: keep the previous thread while it is runnable,
  // else the lowest-id runnable thread.
  if (Prev != NoThread && contains(Runnable, Prev))
    return Prev;
  return Prev = Runnable.front();
}

ThreadId SegmentReplayPolicy::pick(const std::vector<ThreadId> &Runnable,
                                   VM &M) {
  while (Cur < Segments.size()) {
    const Segment &S = Segments[Cur];
    if (!CurStarted) {
      CurStarted = true;
      StepsLeft = S.Len; // 0 = unbounded (until not runnable).
    }
    bool Budgeted = S.Len != 0;
    if ((Budgeted && StepsLeft == 0) || !contains(Runnable, S.T)) {
      ++Cur;
      CurStarted = false;
      continue;
    }
    if (Budgeted)
      --StepsLeft;
    return Prev = S.T;
  }
  if (Prev != NoThread && contains(Runnable, Prev))
    return Prev;
  return Prev = Runnable.front();
}

SegmentedTrace narada::explore::segmentTrace(const ScheduleTrace &Trace) {
  SegmentedTrace Out;
  size_t I = 0;
  size_t NextPreempt = 0;
  while (I < Trace.Picks.size()) {
    ThreadId T = Trace.Picks[I];
    size_t J = I;
    while (J < Trace.Picks.size() && Trace.Picks[J] == T)
      ++J;
    if (!Out.Segments.empty()) {
      // The switch into this segment happened at step I.
      while (NextPreempt < Trace.PreemptSteps.size() &&
             Trace.PreemptSteps[NextPreempt] < I)
        ++NextPreempt;
      bool Preemptive = NextPreempt < Trace.PreemptSteps.size() &&
                        Trace.PreemptSteps[NextPreempt] == I;
      Out.PreemptiveBoundary.push_back(Preemptive);
    }
    Out.Segments.push_back({T, J - I});
    I = J;
  }
  return Out;
}
