#include "util/framed_file.h"

#include <sstream>

#include "util/crc32c.h"

namespace wym::io {

namespace {

/// Sane bounds so a corrupt header can never drive a huge allocation or
/// a quadratic scan: section names are short identifiers, counts small.
constexpr size_t kMaxFrameName = 64;
constexpr uint64_t kMaxFrameCount = 1024;

/// Bounds-checked sequential reader over the raw bytes.
struct Cursor {
  const std::string& bytes;
  size_t pos = 0;

  size_t remaining() const { return bytes.size() - pos; }

  /// Reads up to the next '\n' (consumed, not returned). False when no
  /// newline remains — a truncated line.
  bool ReadLine(std::string* line) {
    const size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) return false;
    line->assign(bytes, pos, nl - pos);
    pos = nl + 1;
    return true;
  }
};

/// Parses a decimal u64 spanning the whole of `text` (no sign, no
/// leading/trailing junk, no empty string).
bool ParseU64(const std::string& text, uint64_t* value) {
  if (text.empty() || text.size() > 19) return false;
  uint64_t out = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<uint64_t>(c - '0');
  }
  *value = out;
  return true;
}

bool ValidFrameName(const std::string& name) {
  if (name.empty() || name.size() > kMaxFrameName) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_' || c == '/' || c == '.';
    if (!ok) return false;
  }
  return true;
}

Status Malformed(const std::string& what, size_t offset) {
  return Status::Corruption(what + " at byte " + std::to_string(offset));
}

}  // namespace

std::string EncodeFramedFile(const std::string& magic, uint32_t version,
                             const std::vector<FileFrame>& frames) {
  // One output string, reserved up front: the payloads are copied once,
  // and the trailer CRC runs over the bytes already written.
  constexpr size_t kLineSlack = 32;  // Keyword, decimal length, CRC hex.
  size_t size = magic.size() + 2 * kLineSlack;
  for (const FileFrame& frame : frames) {
    size += frame.name.size() + frame.payload.size() + 2 * kLineSlack;
  }
  std::string out;
  out.reserve(size);
  out.append(magic).append(" ").append(std::to_string(version)).append("\n");
  for (const FileFrame& frame : frames) {
    out.append("FRAME ").append(frame.name).append(" ");
    out.append(std::to_string(frame.payload.size())).append("\n");
    out.append(frame.payload).append("\n");
    out.append("CRC ").append(crc32c::ToHex(crc32c::Crc32c(frame.payload)));
    out.append("\n");
  }
  const uint32_t body_crc = crc32c::Crc32c(out.data(), out.size());
  out.append("END ").append(std::to_string(frames.size())).append(" ");
  out.append(crc32c::ToHex(body_crc)).append("\n");
  return out;
}

bool LooksFramed(const std::string& bytes, const std::string& magic) {
  return bytes.size() > magic.size() &&
         bytes.compare(0, magic.size(), magic) == 0 &&
         bytes[magic.size()] == ' ';
}

Status DecodeFramedFile(const std::string& bytes, const std::string& magic,
                        uint32_t max_version, uint32_t* version,
                        std::vector<FileFrame>* frames) {
  Cursor cursor{bytes};
  std::string line;

  // Header: "<magic> <version>".
  if (!cursor.ReadLine(&line)) {
    return Status::Corruption("missing header line (file truncated)");
  }
  if (line.size() <= magic.size() ||
      line.compare(0, magic.size(), magic) != 0 || line[magic.size()] != ' ') {
    return Status::Corruption("bad magic: expected a '" + magic + "' file");
  }
  uint64_t file_version = 0;
  if (!ParseU64(line.substr(magic.size() + 1), &file_version)) {
    return Status::Corruption("unparseable format version in header");
  }
  if (file_version == 0 || file_version > max_version) {
    return Status::Corruption(
        "unsupported format version " + std::to_string(file_version) +
        " (this build reads up to " + std::to_string(max_version) + ")");
  }
  if (version != nullptr) *version = static_cast<uint32_t>(file_version);

  uint64_t frame_count = 0;
  while (true) {
    const size_t trailer_start = cursor.pos;
    if (!cursor.ReadLine(&line)) {
      return Status::Corruption("missing file trailer (file truncated)");
    }

    if (line.compare(0, 4, "END ") == 0) {
      const size_t space = line.find(' ', 4);
      uint64_t declared_count = 0;
      uint32_t declared_crc = 0;
      if (space == std::string::npos ||
          !ParseU64(line.substr(4, space - 4), &declared_count) ||
          !crc32c::FromHex(line.substr(space + 1), &declared_crc)) {
        return Malformed("malformed END trailer", trailer_start);
      }
      if (declared_count != frame_count) {
        return Status::Corruption(
            "trailer declares " + std::to_string(declared_count) +
            " frame(s) but file contains " + std::to_string(frame_count));
      }
      const uint32_t actual_crc =
          crc32c::Crc32c(bytes.data(), trailer_start);
      // Byte-exact comparison, not value comparison: the trailer's own
      // hex digits are the only bytes of the file no checksum covers,
      // so even a bit flip that preserves the parsed value (e.g. the
      // 0x20 case bit of a hex letter) must read as corruption.
      if (line.substr(space + 1) != crc32c::ToHex(actual_crc)) {
        return Status::Corruption("whole-file trailer CRC mismatch (stored " +
                                  crc32c::ToHex(declared_crc) + ", computed " +
                                  crc32c::ToHex(actual_crc) + ")");
      }
      if (cursor.remaining() != 0) {
        return Malformed("trailing bytes after END trailer", cursor.pos);
      }
      return Status::Ok();
    }

    // Otherwise this must be a frame: "FRAME <name> <len>".
    if (line.compare(0, 6, "FRAME ") != 0) {
      return Malformed("expected FRAME or END line", trailer_start);
    }
    const size_t space = line.find(' ', 6);
    uint64_t length = 0;
    if (space == std::string::npos ||
        !ParseU64(line.substr(space + 1), &length)) {
      return Malformed("malformed FRAME header", trailer_start);
    }
    const std::string name = line.substr(6, space - 6);
    if (!ValidFrameName(name)) {
      return Malformed("invalid frame name", trailer_start);
    }
    if (++frame_count > kMaxFrameCount) {
      return Status::Corruption("more than " +
                                std::to_string(kMaxFrameCount) + " frames");
    }
    // The declared length must fit in the bytes that are actually
    // present (payload + '\n' + "CRC xxxxxxxx\n" = length + 14).
    if (length > cursor.remaining() || cursor.remaining() - length < 14) {
      return Status::Corruption("section '" + name +
                                "' declares more bytes than the file holds");
    }
    const size_t payload_start = cursor.pos;
    cursor.pos += static_cast<size_t>(length);
    if (bytes[cursor.pos] != '\n') {
      return Status::Corruption("section '" + name +
                                "' payload is not newline-terminated");
    }
    ++cursor.pos;
    if (!cursor.ReadLine(&line) || line.size() != 12 ||
        line.compare(0, 4, "CRC ") != 0) {
      return Status::Corruption("section '" + name + "' has no CRC footer");
    }
    uint32_t declared_crc = 0;
    if (!crc32c::FromHex(line.substr(4), &declared_crc)) {
      return Status::Corruption("section '" + name +
                                "' has an unparseable CRC footer");
    }
    const uint32_t actual_crc = crc32c::Crc32c(
        bytes.data() + payload_start, static_cast<size_t>(length));
    if (declared_crc != actual_crc) {
      return Status::Corruption("section '" + name +
                                "' failed CRC check (stored " +
                                crc32c::ToHex(declared_crc) + ", computed " +
                                crc32c::ToHex(actual_crc) + ")");
    }
    if (frames != nullptr) {
      frames->push_back(FileFrame{
          name, bytes.substr(payload_start, static_cast<size_t>(length))});
    }
  }
}

Status VerifyFramedFile(const std::string& bytes, const std::string& magic,
                        std::string* summary) {
  uint32_t version = 0;
  std::vector<FileFrame> frames;
  WYM_RETURN_IF_ERROR(
      DecodeFramedFile(bytes, magic, /*max_version=*/0xFFFFFFFFu, &version,
                       &frames));
  if (summary != nullptr) {
    std::ostringstream out;
    out << magic << " format v" << version << ", " << frames.size()
        << " frame(s), " << bytes.size() << " bytes\n";
    for (const FileFrame& frame : frames) {
      out << "  frame " << frame.name << ": " << frame.payload.size()
          << " bytes, crc " << crc32c::ToHex(crc32c::Crc32c(frame.payload))
          << " ok\n";
    }
    *summary = out.str();
  }
  return Status::Ok();
}

}  // namespace wym::io
