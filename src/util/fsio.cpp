#include "util/fsio.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <system_error>

namespace ct::util {

namespace fs = std::filesystem;

namespace {

bool fsync_fd_path(const char* path, int flags) noexcept {
  const int fd = ::open(path, flags);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

bool fsync_parent_dir(const std::string& path) noexcept {
  std::error_code ec;
  fs::path parent = fs::path(path).parent_path();
  if (parent.empty()) parent = ".";
  return fsync_fd_path(parent.c_str(), O_RDONLY | O_DIRECTORY);
}

bool atomic_write_file(const std::string& path,
                       std::string_view contents) noexcept {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t written = 0;
  while (written < contents.size()) {
    const ::ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return fsync_parent_dir(path);
}

}  // namespace ct::util
