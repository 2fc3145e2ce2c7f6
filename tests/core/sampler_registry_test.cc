#include "core/sampler_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "baselines/registry.h"
#include "core/sampler.h"

namespace stemroot::core {
namespace {

class SamplerRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { baselines::EnsureBuiltinSamplers(); }
};

TEST_F(SamplerRegistryTest, GlobalKnowsEveryBuiltin) {
  const std::vector<std::string> expected = {"photon", "pka", "random",
                                             "sieve", "stem"};
  EXPECT_EQ(SamplerRegistry::Global().Names(), expected);
  for (const std::string& name : expected) {
    const std::unique_ptr<Sampler> sampler =
        SamplerRegistry::Global().Create(name);
    ASSERT_NE(sampler, nullptr) << name;
    EXPECT_FALSE(sampler->Name().empty()) << name;
  }
}

TEST_F(SamplerRegistryTest, UnknownNameErrorListsRegistered) {
  try {
    SamplerRegistry::Global().Create("foo");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown sampler 'foo'"), std::string::npos)
        << message;
    // The listing is sorted and stable, so error messages (and the CLI
    // help that surfaces them) are byte-identical run to run.
    size_t previous = 0;
    for (const char* name :
         {"photon", "pka", "random", "sieve", "stem"}) {
      const size_t at = message.find(name, previous);
      ASSERT_NE(at, std::string::npos) << name << " in: " << message;
      EXPECT_GE(at, previous) << message;
      previous = at;
    }
  }
}

TEST_F(SamplerRegistryTest, NamesAreSortedAndStable) {
  const std::vector<std::string> first = SamplerRegistry::Global().Names();
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
  EXPECT_EQ(first, SamplerRegistry::Global().Names());
}

TEST_F(SamplerRegistryTest, DuplicateOrEmptyRegistrationThrows) {
  EXPECT_THROW(SamplerRegistry::Global().Register(
                   "stem", [](const SamplerParams&) {
                     return std::unique_ptr<Sampler>();
                   }),
               std::invalid_argument);
  SamplerRegistry local;
  EXPECT_THROW(local.Register("", [](const SamplerParams&) {
    return std::unique_ptr<Sampler>();
  }),
               std::invalid_argument);
}

TEST_F(SamplerRegistryTest, FactoriesHonorParams) {
  const std::unique_ptr<Sampler> stem = SamplerRegistry::Global().Create(
      "stem", SamplerParams().Set("epsilon", 0.25).Set("branch_k", int64_t{3}));
  const auto* typed = dynamic_cast<const StemRootSampler*>(stem.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_DOUBLE_EQ(typed->Config().root.stem.epsilon, 0.25);
  EXPECT_EQ(typed->Config().root.branch_k, 3u);

  const std::unique_ptr<Sampler> random = SamplerRegistry::Global().Create(
      "random", SamplerParams().Set("probability", 0.01));
  EXPECT_EQ(random->Name(), "Random(1%)");

  const std::unique_ptr<Sampler> pka = SamplerRegistry::Global().Create(
      "pka", SamplerParams().Set("random_representative", true));
  EXPECT_NE(pka->Name().find("random-rep"), std::string::npos) << pka->Name();
}

TEST(SamplerParamsTest, TypedGettersParseAndFallBack) {
  SamplerParams params;
  params.Set("s", "hello")
      .Set("d", 0.5)
      .Set("i", int64_t{42})
      .Set("b", true);
  // A string literal stays a string: it must not bind to Set(bool).
  EXPECT_THROW(params.GetBool("s", false), std::invalid_argument);
  EXPECT_DOUBLE_EQ(params.GetDouble("d", 0.0), 0.5);
  EXPECT_EQ(params.GetUint("i", 0, 42), 42u);
  EXPECT_TRUE(params.GetBool("b", false));
  EXPECT_DOUBLE_EQ(params.GetDouble("missing", 1.5), 1.5);
  EXPECT_EQ(params.GetUint("missing", 7, 1), 7u);  // the fallback is trusted
  EXPECT_FALSE(params.GetBool("missing", false));
}

TEST(SamplerParamsTest, MalformedValuesThrow) {
  SamplerParams params;
  params.Set("x", "not-a-number");
  EXPECT_THROW(params.GetDouble("x", 0.0), std::invalid_argument);
  EXPECT_THROW(params.GetUint("x", 0, 10), std::invalid_argument);
  EXPECT_THROW(params.GetBool("x", false), std::invalid_argument);

  // A count is range-checked before it is narrowed: 2^32 + 2 would wrap
  // to 2 in a uint32_t field, -1 to 4294967295.
  params.Set("wide", "4294967298").Set("neg", "-1");
  try {
    params.GetUint("wide", 0, 4294967295u);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "SamplerParams: 'wide' expects an integer in [0, "
                 "4294967295], got '4294967298'");
  }
  EXPECT_THROW(params.GetUint("neg", 0, 4294967295u), std::invalid_argument);
}

// Each factory's declared keys are the keys it reads: a malformed value
// for any declared key makes Create throw.
TEST_F(SamplerRegistryTest, EveryDeclaredParamIsRead) {
  const SamplerRegistry& registry = SamplerRegistry::Global();
  size_t declared = 0;
  for (const std::string& name : registry.Names())
    for (const FlagSpec& param : registry.Params(name)) {
      ++declared;
      const SamplerParams malformed = SamplerParams().Set(param.name, "abc");
      EXPECT_THROW(registry.Create(name, malformed), std::invalid_argument)
          << name << " --" << param.name;
    }
  EXPECT_EQ(declared, 15u);  // random_representative twice (pka, sieve)
  EXPECT_THROW(registry.Params("foo"), std::invalid_argument);
}

}  // namespace
}  // namespace stemroot::core
