// The main() of every figure bench: runs bench::driver and reports any
// exception as its message on stderr and exit 64 (EX_USAGE), as sda_run
// does, so a run the arguments make impossible never escapes main.
#include <cstdio>
#include <exception>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  try {
    return bench::driver(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 64;
  }
}
