// Line-oriented text file helpers shared by the tabular parsers.
#pragma once

#include <string>
#include <vector>

namespace fv {

/// Reads a whole text file as lines. Handles both LF and CRLF endings and
/// drops a trailing empty line. Throws IoError if the file cannot be read.
std::vector<std::string> read_lines(const std::string& path);

/// Reads a whole regular file into one string, in one read of its size.
/// Throws IoError naming the path when it cannot be opened, is not a
/// regular file (a directory, FIFO or device) or the read fails.
std::string read_text_file(const std::string& path);

/// Writes (replaces) a text file. Throws IoError on failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace fv
