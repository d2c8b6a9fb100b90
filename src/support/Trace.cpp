//===- support/Trace.cpp - Structured JSONL tracing ------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Diag.h"
#include "support/Profile.h"

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>

using namespace alive;
using namespace alive::trace;

namespace {

using prof::detail::Mode;
using prof::detail::Tracing;

std::mutex SinkMu;
std::ostream *Sink = nullptr; // guarded by SinkMu
std::ofstream FileSink;       // owned file sink, when used
Stopwatch Epoch;              // guarded by SinkMu; reset on attach

void attach(std::ostream *OS) {
  std::lock_guard<std::mutex> Lock(SinkMu);
  if (FileSink.is_open() && Sink == &FileSink) {
    FileSink.flush();
    FileSink.close();
  }
  Sink = OS;
  if (OS) {
    Epoch.reset();
    Mode.fetch_or(Tracing, std::memory_order_release);
  } else {
    Mode.fetch_and(~Tracing, std::memory_order_release);
  }
}

} // namespace

bool trace::enabled() {
  return Mode.load(std::memory_order_relaxed) & Tracing;
}

bool trace::openFile(const std::string &Path) {
  {
    std::lock_guard<std::mutex> Lock(SinkMu);
    if (FileSink.is_open())
      FileSink.close();
    FileSink.clear();
    FileSink.open(Path, std::ios::out | std::ios::trunc);
    if (!FileSink)
      return false;
  }
  attach(&FileSink);
  return true;
}

void trace::setStream(std::ostream *OS) { attach(OS); }

void trace::close() { attach(nullptr); }

std::string trace::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Hex[8];
        std::snprintf(Hex, sizeof Hex, "\\u%04x", C);
        Out += Hex;
      } else {
        Out += (char)C;
      }
    }
  }
  return Out;
}

void Fields::write(const char *Kind, uint64_t Span,
                   std::string_view Lead) const {
  unsigned Tid = prof::threadId();
  std::lock_guard<std::mutex> Lock(SinkMu);
  if (!Sink)
    return;
  // "t" is read under the sink lock, so it never decreases down the file.
  char Head[160];
  std::snprintf(Head, sizeof Head,
                "{\"event\":\"%s\",\"t\":%.6f,\"tid\":%u,\"span\":%" PRIu64,
                Kind, Epoch.seconds(), Tid, Span);
  *Sink << Head << Lead << Buf << "}\n";
  Sink->flush();
}

Event::~Event() {
  if (On)
    write(Kind, prof::currentSpanId(), {});
}

void Fields::key(const char *Key) {
  Buf += ",\"";
  Buf += Key;
  Buf += "\":";
}

Fields &Fields::str(const char *Key, std::string_view Value) {
  if (!On)
    return *this;
  key(Key);
  Buf += '"';
  Buf += jsonEscape(Value);
  Buf += '"';
  return *this;
}

Fields &Fields::num(const char *Key, double Value) {
  if (!On)
    return *this;
  key(Key);
  char Num[48];
  if (!std::isfinite(Value))
    std::snprintf(Num, sizeof Num, "null");
  else
    std::snprintf(Num, sizeof Num, "%.9g", Value);
  Buf += Num;
  return *this;
}

Fields &Fields::numU(const char *Key, uint64_t Value) {
  key(Key);
  char Num[32];
  std::snprintf(Num, sizeof Num, "%" PRIu64, Value);
  Buf += Num;
  return *this;
}

Fields &Fields::numI(const char *Key, int64_t Value) {
  key(Key);
  char Num[32];
  std::snprintf(Num, sizeof Num, "%" PRId64, Value);
  Buf += Num;
  return *this;
}

Fields &Fields::flag(const char *Key, bool Value) {
  if (!On)
    return *this;
  key(Key);
  Buf += Value ? "true" : "false";
  return *this;
}
