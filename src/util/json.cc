#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace triton::util {

void JsonWriter::BeginObject() {
  BeforeValue();
  Raw("{");
  stack_.push_back({.is_object = true});
  done_ = false;
}

void JsonWriter::EndObject() {
  CHECK(!stack_.empty() && stack_.back().is_object);
  CHECK(!stack_.back().key_pending);
  const bool empty = stack_.back().values == 0;
  stack_.pop_back();
  if (!empty) {
    Raw("\n");
    Indent();
  }
  Raw("}");
  if (stack_.empty()) done_ = true;
}

void JsonWriter::BeginArray() {
  BeforeValue();
  Raw("[");
  stack_.push_back({.is_object = false});
  done_ = false;
}

void JsonWriter::EndArray() {
  CHECK(!stack_.empty() && !stack_.back().is_object);
  const bool empty = stack_.back().values == 0;
  stack_.pop_back();
  if (!empty) {
    Raw("\n");
    Indent();
  }
  Raw("]");
  if (stack_.empty()) done_ = true;
}

void JsonWriter::Key(std::string_view name) {
  CHECK(!stack_.empty() && stack_.back().is_object);
  CHECK(!stack_.back().key_pending);
  if (stack_.back().values > 0) Raw(",");
  Raw("\n");
  Indent();
  Raw("\"");
  Raw(Escape(name));
  Raw("\": ");
  stack_.back().key_pending = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  Raw("\"");
  Raw(Escape(value));
  Raw("\"");
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  Raw(std::to_string(value));
}

void JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  Raw(std::to_string(value));
}

void JsonWriter::Double(double value) {
  if (std::isnan(value)) {
    String("NaN");
    return;
  }
  if (std::isinf(value)) {
    String(value > 0 ? "Infinity" : "-Infinity");
    return;
  }
  BeforeValue();
  Raw(FormatDouble(value));
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  Raw(value ? "true" : "false");
}

const std::string& JsonWriter::str() {
  CHECK(done_ && stack_.empty()) << "JSON document not closed";
  if (out_.empty() || out_.back() != '\n') Raw("\n");
  return out_;
}

void JsonWriter::BeforeValue() {
  CHECK(!done_) << "document already complete";
  if (stack_.empty()) {
    done_ = true;  // a root value completes the document
    return;
  }
  Scope& top = stack_.back();
  if (top.is_object) {
    CHECK(top.key_pending) << "value in object without Key()";
    top.key_pending = false;
  } else {
    if (top.values > 0) Raw(",");
    Raw("\n");
    Indent();
  }
  ++top.values;
}

void JsonWriter::Indent() {
  for (size_t i = 0; i < stack_.size(); ++i) Raw("  ");
}

std::string JsonWriter::Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);  // UTF-8 bytes pass through
        }
    }
  }
  return out;
}

std::string JsonWriter::FormatDouble(double value) {
  DCHECK(std::isfinite(value));
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  CHECK(ec == std::errc());
  return std::string(buf, ptr);
}

}  // namespace triton::util
