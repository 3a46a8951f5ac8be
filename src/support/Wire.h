//===- support/Wire.h - Framed record protocol ------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire format between the ProcessPool supervisor and narada-cli
/// worker subprocesses: length-prefixed frames over pipes, each carrying
/// one flat key=value record.
///
/// Framing: a 4-byte little-endian payload length followed by the payload
/// bytes.  A frame that would exceed MaxFrameBytes is a protocol error on
/// both ends — a corrupted length must never turn into an unbounded
/// allocation in the supervisor.
///
/// Records: newline-separated `key=value` lines.  Keys are bare
/// identifiers ([A-Za-z0-9_.]); values are escaped (`\\`, `\n`, so
/// arbitrary program source round-trips).  Repeated keys form ordered
/// lists.  The format is deliberately line-oriented and human-readable:
/// a captured frame pastes straight into a bug report.
///
/// The durable snapshot files (the daemon cache, the race database) are
/// frame sequences too, saved through replaceFileDurably and loaded
/// through readSnapshot.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SUPPORT_WIRE_H
#define NARADA_SUPPORT_WIRE_H

#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace narada {
namespace wire {

/// Upper bound on one frame's payload (64 MiB): generous for any corpus
/// source or result set, small enough that a garbled length prefix fails
/// fast instead of exhausting memory.
constexpr uint32_t MaxFrameBytes = 64u << 20;

/// `\` -> `\\`, newline -> `\n` (backslash-n), so values embed in the
/// line-oriented record format.
std::string escape(std::string_view Raw);

/// Inverse of escape(); forgiving on a trailing lone backslash (kept
/// literally) so a truncated frame still decodes to *something*
/// diagnosable.
std::string unescape(std::string_view Escaped);

/// Builds one record from key/value pairs in insertion order.
class RecordWriter {
public:
  void add(std::string_view Key, std::string_view Value);
  void add(std::string_view Key, uint64_t Value);
  void add(std::string_view Key, int64_t Value);
  void addBool(std::string_view Key, bool Value);
  void addDouble(std::string_view Key, double Value);
  std::string str() const { return Text; }

private:
  std::string Text;
};

/// Parses a record into ordered (key, value) pairs.  Lines without '=' are
/// ignored (forward compatibility), values are unescaped.
class RecordReader {
public:
  explicit RecordReader(std::string_view Text);

  /// First value of \p Key, if present.
  std::optional<std::string> get(std::string_view Key) const;
  /// First value of \p Key or \p Default.
  std::string getOr(std::string_view Key, std::string_view Default) const;
  /// First value of \p Key parsed as base-10 uint64, or \p Default on
  /// absence/garbage.
  uint64_t getU64(std::string_view Key, uint64_t Default = 0) const;
  int64_t getI64(std::string_view Key, int64_t Default = 0) const;
  bool getBool(std::string_view Key, bool Default = false) const;
  double getDouble(std::string_view Key, double Default = 0.0) const;
  /// Every value of \p Key in record order.
  std::vector<std::string> all(std::string_view Key) const;
  /// Every (key, value) pair in record order.
  const std::vector<std::pair<std::string, std::string>> &entries() const {
    return Entries;
  }

private:
  std::vector<std::pair<std::string, std::string>> Entries;
};

/// Writes all \p N bytes at \p Data to \p Fd, retrying on EINTR and short
/// writes; false on any write error.
bool writeAll(int Fd, const char *Data, size_t N);

/// Replaces \p Path with what \p Write writes into the descriptor it is
/// given (a fresh `<Path>.tmp`), fsyncing the file before the rename and
/// the directory after it, so a crash leaves the old file or the complete
/// new one.  False when any step fails; \p Path is then untouched unless
/// only the directory sync failed.
bool replaceFileDurably(const std::string &Path,
                        const std::function<bool(int Fd)> &Write);

/// Writes one frame to \p Fd (blocking, retries on EINTR and short
/// writes).  Returns false on any write error (e.g. EPIPE from a dead
/// peer) — callers treat that as a worker death, not a crash.
bool writeFrame(int Fd, std::string_view Payload);

/// The byte string writeFrame() would emit: 4-byte little-endian length
/// prefix + payload.  Lets callers assemble a whole multi-frame document
/// in memory (e.g. for byte-identity comparisons) before one write.
std::string frameBytes(std::string_view Payload);

/// What reading a frame produced.
enum class ReadStatus {
  Ok,       ///< A complete frame was read into the output.
  Eof,      ///< Clean EOF on a frame boundary (peer closed its end).
  Partial,  ///< EOF in the middle of a frame (peer died mid-write).
  Error,    ///< A read error, or a length prefix above MaxFrameBytes.
};

/// Blocking frame read from \p Fd.
ReadStatus readFrame(int Fd, std::string &Payload);

/// The shape of one snapshot file: a header record carrying `magic` and
/// `version`, then entry records that each name their `kind`.
struct SnapshotFormat {
  std::string_view What; ///< The file's name in messages ("cache file").
  std::string_view Magic;
  uint64_t MinVersion = 1; ///< Accepted header versions, inclusive.
  uint64_t MaxVersion = 1;
};

/// Handles one record of a snapshot file: the parsed \p Record and the
/// frame \p Payload it was parsed from (valid for the call only).
using SnapshotRecordFn = std::function<Status(const RecordReader &Record,
                                              std::string_view Payload)>;

/// Reads the snapshot at \p Path all-or-nothing.  After the magic and
/// version checks \p OnHeader (may be empty) sees the header record; every
/// entry frame then goes to the handler \p OnEntry holds for its kind.
/// The first failure is returned: a missing file, a missing or bad header,
/// a truncated or oversized frame, an unknown kind, or a handler's error.
/// The descriptor is closed on every path.
Status readSnapshot(const std::string &Path, const SnapshotFormat &Format,
                    const SnapshotRecordFn &OnHeader,
                    const std::map<std::string, SnapshotRecordFn> &OnEntry);

/// Incremental frame decoder for the supervisor's non-blocking reads:
/// feed() raw bytes as they arrive, next() yields completed frames.
class FrameBuffer {
public:
  /// Appends raw bytes.  Returns false when a pending frame's declared
  /// length exceeds MaxFrameBytes (protocol error; the buffer is poisoned
  /// and yields no further frames).
  bool feed(const char *Data, size_t N);
  /// Pops the next complete frame's payload, if one is buffered.
  std::optional<std::string> next();
  /// True when partial frame bytes are pending (EOF now = Partial).
  bool midFrame() const { return !Buffer.empty(); }
  /// False after a protocol error (oversized length prefix).
  bool ok() const { return !Poisoned; }

private:
  std::string Buffer;
  bool Poisoned = false;
};

} // namespace wire
} // namespace narada

#endif // NARADA_SUPPORT_WIRE_H
