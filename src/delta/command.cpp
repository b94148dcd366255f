#include "delta/command.hpp"

namespace ipd {

std::ostream& operator<<(std::ostream& os, const CopyCommand& c) {
  return os << "copy<f=" << c.from << ", t=" << c.to << ", l=" << c.length
            << '>';
}

std::ostream& operator<<(std::ostream& os, const CommandRef& c) {
  if (c.is_add()) {
    return os << "add<t=" << c.to << ", l=" << c.length << '>';
  }
  return os << c.copy();
}

}  // namespace ipd
