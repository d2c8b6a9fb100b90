//===- support/Trace.h - Structured JSONL tracing ---------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An optional structured trace of the pipeline: one JSON object per line
/// (JSONL). Disabled by default; when no sink is attached, enabled() is a
/// relaxed atomic load so instrumented call sites cost one predictable
/// branch.
///
/// Two kinds of record share the format. Every closing prof::Span writes
/// one line describing its phase (see Profile.h); point events that have
/// no duration (a verdict, a deadline trip, a cache load) are trace::Event
/// temporaries. Every line carries "event" (the span or event name), "t"
/// (seconds since the sink was attached, at the moment of writing), "tid"
/// (dense per-thread id, shared with the profiler's Chrome tracks) and
/// "span" (a span record's own id; for a point event the innermost open
/// span, 0 when none), so interleaved lines from `alive-tv -j N` runs stay
/// attributable; the remaining fields are record-specific. Field values are
/// strings, numbers or booleans — nesting is deliberately unsupported so
/// every consumer can stream-parse line by line. See the "Observability"
/// section of DESIGN.md for the schema.
///
/// Usage at an instrumented site:
///
///   trace::Event("cache_load").num("records", N).num("bad", Bad);
///
/// The event is written (atomically, one line) when the temporary dies.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SUPPORT_TRACE_H
#define ALIVE2RE_SUPPORT_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

namespace alive::trace {

/// True while a sink is attached. Relaxed atomic load: cheap enough for any
/// instrumented path.
bool enabled();

/// Attaches a file sink at \p Path (truncating). \returns false when the
/// file cannot be opened. Replaces any previous sink.
bool openFile(const std::string &Path);

/// Attaches \p OS as the sink (test hook); nullptr detaches. The stream
/// must outlive the attachment.
void setStream(std::ostream *OS);

/// Flushes and detaches the current sink, closing a file sink.
void close();

/// Escapes \p S for embedding in a JSON string literal (quotes, backslash,
/// control characters). Shared with the --json renderer in alive-tv.
std::string jsonEscape(std::string_view S);

/// The typed fields of one JSONL record, shared by point events and span
/// records. Every builder call is a no-op unless the record was live (a
/// sink attached) at construction.
class Fields {
public:
  Fields(const Fields &) = delete;
  Fields &operator=(const Fields &) = delete;

  Fields &str(const char *Key, std::string_view Value);
  Fields &num(const char *Key, double Value);
  Fields &flag(const char *Key, bool Value);

  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Fields &num(const char *Key, T Value) {
    if (!On)
      return *this;
    if constexpr (std::is_signed_v<T>)
      return numI(Key, (int64_t)Value);
    else
      return numU(Key, (uint64_t)Value);
  }

protected:
  explicit Fields(bool On) : On(On) {}
  ~Fields() = default;

  /// Writes one line: the header (event = \p Kind, t, tid, span = \p Span),
  /// then \p Lead (pre-rendered ",\"key\":value" fields), then the fields
  /// attached so far.
  void write(const char *Kind, uint64_t Span, std::string_view Lead) const;

  bool On;

private:
  Fields &numU(const char *Key, uint64_t Value);
  Fields &numI(const char *Key, int64_t Value);
  void key(const char *Key);

  std::string Buf;
};

/// One point event, written on destruction.
class Event : public Fields {
public:
  explicit Event(const char *Kind) : Fields(enabled()), Kind(Kind) {}
  ~Event();

private:
  const char *Kind;
};

} // namespace alive::trace

#endif // ALIVE2RE_SUPPORT_TRACE_H
