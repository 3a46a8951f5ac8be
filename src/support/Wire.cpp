//===- support/Wire.cpp - Framed record protocol -------------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "support/Wire.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

using namespace narada;
using namespace narada::wire;

std::string wire::escape(std::string_view Raw) {
  std::string Out;
  Out.reserve(Raw.size());
  for (char C : Raw) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

std::string wire::unescape(std::string_view Escaped) {
  std::string Out;
  Out.reserve(Escaped.size());
  for (size_t I = 0; I < Escaped.size(); ++I) {
    char C = Escaped[I];
    if (C != '\\' || I + 1 >= Escaped.size()) {
      Out += C;
      continue;
    }
    char Next = Escaped[++I];
    if (Next == 'n')
      Out += '\n';
    else if (Next == '\\')
      Out += '\\';
    else {
      // Unknown escape: keep both bytes (diagnosable, never lossy).
      Out += '\\';
      Out += Next;
    }
  }
  return Out;
}

void RecordWriter::add(std::string_view Key, std::string_view Value) {
  Text.append(Key);
  Text += '=';
  Text += escape(Value);
  Text += '\n';
}

void RecordWriter::add(std::string_view Key, uint64_t Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu",
                static_cast<unsigned long long>(Value));
  add(Key, std::string_view(Buf));
}

void RecordWriter::add(std::string_view Key, int64_t Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(Value));
  add(Key, std::string_view(Buf));
}

void RecordWriter::addBool(std::string_view Key, bool Value) {
  add(Key, std::string_view(Value ? "1" : "0"));
}

void RecordWriter::addDouble(std::string_view Key, double Value) {
  char Buf[64];
  // %.17g round-trips every double through decimal.
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  add(Key, std::string_view(Buf));
}

RecordReader::RecordReader(std::string_view Text) {
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    size_t Eq = Line.find('=');
    if (Eq == std::string_view::npos || Eq == 0)
      continue;
    Entries.emplace_back(std::string(Line.substr(0, Eq)),
                         unescape(Line.substr(Eq + 1)));
  }
}

std::optional<std::string> RecordReader::get(std::string_view Key) const {
  for (const auto &[K, V] : Entries)
    if (K == Key)
      return V;
  return std::nullopt;
}

std::string RecordReader::getOr(std::string_view Key,
                                std::string_view Default) const {
  std::optional<std::string> V = get(Key);
  return V ? *V : std::string(Default);
}

uint64_t RecordReader::getU64(std::string_view Key, uint64_t Default) const {
  std::optional<std::string> V = get(Key);
  if (!V || V->empty())
    return Default;
  uint64_t Out = 0;
  for (char C : *V) {
    if (C < '0' || C > '9')
      return Default;
    Out = Out * 10 + static_cast<uint64_t>(C - '0');
  }
  return Out;
}

int64_t RecordReader::getI64(std::string_view Key, int64_t Default) const {
  std::optional<std::string> V = get(Key);
  if (!V || V->empty())
    return Default;
  bool Negative = (*V)[0] == '-';
  uint64_t Magnitude =
      getU64(Key, UINT64_MAX); // Re-parse below for the negative case.
  if (!Negative)
    return Magnitude == UINT64_MAX ? Default
                                   : static_cast<int64_t>(Magnitude);
  uint64_t Out = 0;
  for (size_t I = 1; I < V->size(); ++I) {
    char C = (*V)[I];
    if (C < '0' || C > '9')
      return Default;
    Out = Out * 10 + static_cast<uint64_t>(C - '0');
  }
  return -static_cast<int64_t>(Out);
}

bool RecordReader::getBool(std::string_view Key, bool Default) const {
  std::optional<std::string> V = get(Key);
  if (!V)
    return Default;
  return *V == "1" || *V == "true";
}

double RecordReader::getDouble(std::string_view Key, double Default) const {
  std::optional<std::string> V = get(Key);
  if (!V || V->empty())
    return Default;
  char *End = nullptr;
  double Out = std::strtod(V->c_str(), &End);
  return End && *End == '\0' ? Out : Default;
}

std::vector<std::string> RecordReader::all(std::string_view Key) const {
  std::vector<std::string> Out;
  for (const auto &[K, V] : Entries)
    if (K == Key)
      Out.push_back(V);
  return Out;
}

bool wire::writeAll(int Fd, const char *Data, size_t N) {
  while (N > 0) {
    ssize_t Wrote = ::write(Fd, Data, N);
    if (Wrote < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += Wrote;
    N -= static_cast<size_t>(Wrote);
  }
  return true;
}

bool wire::replaceFileDurably(const std::string &Path,
                              const std::function<bool(int Fd)> &Write) {
  auto SyncFd = [](int Fd) {
    while (::fsync(Fd) != 0)
      if (errno != EINTR)
        return false;
    return true;
  };
  const std::string TempPath = Path + ".tmp";
  int Fd = ::open(TempPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  bool Ok = Write(Fd) && SyncFd(Fd);
  Ok = ::close(Fd) == 0 && Ok;
  if (!Ok || ::rename(TempPath.c_str(), Path.c_str()) != 0) {
    ::unlink(TempPath.c_str());
    return false;
  }
  // The rename is durable once the directory entry is.
  std::string Dir = std::filesystem::path(Path).parent_path().string();
  int DirFd = ::open(Dir.empty() ? "." : Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd < 0)
    return false;
  Ok = SyncFd(DirFd);
  ::close(DirFd);
  return Ok;
}

namespace {

/// Reads exactly \p N bytes; returns how many were read before EOF/error
/// (negative on error).
ssize_t readAll(int Fd, char *Data, size_t N) {
  size_t Total = 0;
  while (Total < N) {
    ssize_t Got = ::read(Fd, Data + Total, N - Total);
    if (Got < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (Got == 0)
      break;
    Total += static_cast<size_t>(Got);
  }
  return static_cast<ssize_t>(Total);
}

uint32_t decodeLen(const unsigned char *B) {
  return static_cast<uint32_t>(B[0]) | (static_cast<uint32_t>(B[1]) << 8) |
         (static_cast<uint32_t>(B[2]) << 16) |
         (static_cast<uint32_t>(B[3]) << 24);
}

} // namespace

std::string wire::frameBytes(std::string_view Payload) {
  std::string Out;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  Out.reserve(Payload.size() + 4);
  Out.push_back(static_cast<char>(Len & 0xff));
  Out.push_back(static_cast<char>((Len >> 8) & 0xff));
  Out.push_back(static_cast<char>((Len >> 16) & 0xff));
  Out.push_back(static_cast<char>((Len >> 24) & 0xff));
  Out.append(Payload.data(), Payload.size());
  return Out;
}

bool wire::writeFrame(int Fd, std::string_view Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  unsigned char Header[4];
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  Header[0] = static_cast<unsigned char>(Len & 0xff);
  Header[1] = static_cast<unsigned char>((Len >> 8) & 0xff);
  Header[2] = static_cast<unsigned char>((Len >> 16) & 0xff);
  Header[3] = static_cast<unsigned char>((Len >> 24) & 0xff);
  if (!writeAll(Fd, reinterpret_cast<const char *>(Header), 4))
    return false;
  return writeAll(Fd, Payload.data(), Payload.size());
}

ReadStatus wire::readFrame(int Fd, std::string &Payload) {
  unsigned char Header[4];
  ssize_t Got = readAll(Fd, reinterpret_cast<char *>(Header), 4);
  if (Got < 0)
    return ReadStatus::Error;
  if (Got == 0)
    return ReadStatus::Eof;
  if (Got < 4)
    return ReadStatus::Partial;
  uint32_t Len = decodeLen(Header);
  if (Len > MaxFrameBytes)
    return ReadStatus::Error;
  Payload.resize(Len);
  Got = readAll(Fd, Payload.data(), Len);
  if (Got < 0)
    return ReadStatus::Error;
  if (static_cast<uint32_t>(Got) < Len)
    return ReadStatus::Partial;
  return ReadStatus::Ok;
}

namespace {

/// readSnapshot after the open: every check and handler of one load.
Status readSnapshotFrames(
    int Fd, const std::string &Named, const SnapshotFormat &Format,
    const SnapshotRecordFn &OnHeader,
    const std::map<std::string, SnapshotRecordFn> &OnEntry) {
  std::string Payload;
  if (readFrame(Fd, Payload) != ReadStatus::Ok)
    return Error(Named + " has no header frame");
  RecordReader Header(Payload);
  if (Header.getOr("magic", "") != Format.Magic)
    return Error(Named + " has a bad magic");
  const uint64_t V = Header.getU64("version", 0);
  if (V < Format.MinVersion || V > Format.MaxVersion)
    return Error(Named + " has an unsupported version");
  if (OnHeader)
    if (Status S = OnHeader(Header, Payload); !S)
      return S;
  for (;;) {
    ReadStatus St = readFrame(Fd, Payload);
    if (St == ReadStatus::Eof)
      return Status::success();
    if (St != ReadStatus::Ok)
      return Error(Named + " is truncated or corrupt");
    RecordReader Entry(Payload);
    const std::string Kind = Entry.getOr("kind", "");
    auto It = OnEntry.find(Kind);
    if (It == OnEntry.end())
      return Error(Named + " has an unknown entry kind '" + Kind + "'");
    if (Status S = It->second(Entry, Payload); !S)
      return S;
  }
}

} // namespace

Status wire::readSnapshot(
    const std::string &Path, const SnapshotFormat &Format,
    const SnapshotRecordFn &OnHeader,
    const std::map<std::string, SnapshotRecordFn> &OnEntry) {
  const std::string Named = std::string(Format.What) + " '" + Path + "'";
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return Error("cannot open " + Named);
  Status Loaded = readSnapshotFrames(Fd, Named, Format, OnHeader, OnEntry);
  ::close(Fd);
  return Loaded;
}

bool FrameBuffer::feed(const char *Data, size_t N) {
  if (Poisoned)
    return false;
  Buffer.append(Data, N);
  if (Buffer.size() >= 4) {
    uint32_t Len =
        decodeLen(reinterpret_cast<const unsigned char *>(Buffer.data()));
    if (Len > MaxFrameBytes)
      Poisoned = true;
  }
  return !Poisoned;
}

std::optional<std::string> FrameBuffer::next() {
  if (Poisoned || Buffer.size() < 4)
    return std::nullopt;
  uint32_t Len =
      decodeLen(reinterpret_cast<const unsigned char *>(Buffer.data()));
  if (Len > MaxFrameBytes) {
    Poisoned = true;
    return std::nullopt;
  }
  if (Buffer.size() < 4u + Len)
    return std::nullopt;
  std::string Out = Buffer.substr(4, Len);
  Buffer.erase(0, 4u + Len);
  return Out;
}
