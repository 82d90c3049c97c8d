#include "util/table_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>

#include "util/error.hpp"

namespace fv {

std::string read_text_file(const std::string& path) {
  // O_NONBLOCK keeps a FIFO from blocking the open; it is rejected below.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) throw IoError("cannot open file for reading: " + path);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat info {};
  if (::fstat(fd, &info) != 0) throw IoError("cannot stat file: " + path);
  // A directory opens fine and reads as empty; name it instead.
  if (!S_ISREG(info.st_mode)) throw IoError("not a regular file: " + path);
  std::string content(static_cast<std::size_t>(info.st_size), '\0');
  std::size_t done = 0;
  while (done < content.size()) {
    const ssize_t got =
        ::read(fd, content.data() + done, content.size() - done);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) throw IoError("read failure on file: " + path);
    if (got == 0) break;  // the file shrank since fstat
    done += static_cast<std::size_t>(got);
  }
  content.resize(done);
  return content;
}

std::vector<std::string> read_lines(const std::string& path) {
  const std::string content = read_text_file(path);
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) {
      if (start < content.size()) {
        lines.emplace_back(content.substr(start));
      }
      break;
    }
    std::size_t len = end - start;
    if (len > 0 && content[start + len - 1] == '\r') --len;
    lines.emplace_back(content.substr(start, len));
    start = end + 1;
  }
  return lines;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open file for writing: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) throw IoError("write failure on file: " + path);
}

}  // namespace fv
