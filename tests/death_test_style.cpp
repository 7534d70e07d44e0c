// Every death test in rispp_tests runs in gtest's "threadsafe" style: the
// child re-executes the binary and runs only the dying statement's test.
//
// The default "fast" style forks the process as it is. When the binary runs
// many tests in one process, ThreadPool::global()'s workers are already live
// by then, and a child that leaves through std::exit (the RISPP_* env parse
// errors do) runs the pool's destructor, which joins worker threads the
// forked child does not have.
#include <gtest/gtest.h>

namespace {

class ThreadsafeDeathTests : public ::testing::Environment {
 public:
  void SetUp() override { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }
};

// Registered before main, as gtest documents for binaries linking gtest_main.
::testing::Environment* const kThreadsafeDeathTests =
    ::testing::AddGlobalTestEnvironment(new ThreadsafeDeathTests);

}  // namespace
