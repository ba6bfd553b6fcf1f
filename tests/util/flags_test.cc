#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace contender {
namespace {

Flags MakeFlags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = MakeFlags({"--seed=7", "--name=alpha", "--rate=0.5"});
  EXPECT_EQ(f.GetInt("seed", 0), 7);
  EXPECT_EQ(f.GetString("name", ""), "alpha");
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.0), 0.5);
  EXPECT_EQ(f.Seed(), 7u);
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f = MakeFlags({"--seed", "9", "--name", "beta"});
  EXPECT_EQ(f.GetInt("seed", 0), 9);
  EXPECT_EQ(f.GetString("name", ""), "beta");
}

TEST(FlagsTest, BooleanFlags) {
  Flags f = MakeFlags({"--verbose", "--no-color"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_FALSE(f.GetBool("color", true));
  EXPECT_TRUE(f.GetBool("absent", true));
  EXPECT_FALSE(f.GetBool("absent", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = MakeFlags({});
  EXPECT_EQ(f.GetInt("seed", 42), 42);
  EXPECT_EQ(f.Seed(), 42u);
  EXPECT_EQ(f.GetString("x", "dflt"), "dflt");
  EXPECT_FALSE(f.Has("x"));
}

TEST(FlagsTest, ExplicitFalseString) {
  Flags f = MakeFlags({"--opt=false", "--zero=0"});
  EXPECT_FALSE(f.GetBool("opt", true));
  EXPECT_FALSE(f.GetBool("zero", true));
}

TEST(FlagsTest, NumbersParseWholeValues) {
  Flags f = MakeFlags({"--n=-12", "--big=9223372036854775807", "--x=2.5e3",
                       "--y=-0.25"});
  EXPECT_EQ(f.GetInt("n", 0), -12);
  EXPECT_EQ(f.GetInt("big", 0), INT64_MAX);
  EXPECT_DOUBLE_EQ(f.GetDouble("x", 0.0), 2500.0);
  EXPECT_DOUBLE_EQ(f.GetDouble("y", 0.0), -0.25);
}

TEST(FlagsDeathTest, MalformedIntegerExitsNamingTheFlag) {
  for (const char* value : {"abc", "12x", "", " 7", "1.5", "1e3",
                            "9223372036854775808"}) {
    Flags f = MakeFlags({std::string("--requests=") + value});
    EXPECT_EXIT(f.GetInt("requests", 5), ::testing::ExitedWithCode(2),
                "flag --requests")
        << "value '" << value << "'";
  }
}

TEST(FlagsDeathTest, MalformedDoubleExitsNamingTheFlag) {
  for (const char* value : {"abc", "0.5s", "", "1e999", "nan", "inf"}) {
    Flags f = MakeFlags({std::string("--rate=") + value});
    EXPECT_EXIT(f.GetDouble("rate", 1.0), ::testing::ExitedWithCode(2),
                "flag --rate")
        << "value '" << value << "'";
  }
}

TEST(FlagsDeathTest, ValuelessNumericFlagIsRejected) {
  // "--mpl" followed by another flag parses as the boolean "true".
  Flags f = MakeFlags({"--mpl", "--verbose"});
  EXPECT_EXIT(f.GetInt("mpl", 3), ::testing::ExitedWithCode(2), "flag --mpl");
}

TEST(FlagsDeathTest, NonBooleanValueExitsNamingTheFlag) {
  for (const char* value : {"no", "yes", "off", "on", "", "False", "2"}) {
    Flags f = MakeFlags({std::string("--check=") + value});
    EXPECT_EXIT(f.GetBool("check", true), ::testing::ExitedWithCode(2),
                "flag --check")
        << "value '" << value << "'";
  }
}

TEST(FlagsTest, BooleanAcceptsTrueFalseOneZero) {
  Flags f = MakeFlags({"--a=true", "--b=1", "--c=false", "--d=0", "--e"});
  EXPECT_TRUE(f.GetBool("a", false));
  EXPECT_TRUE(f.GetBool("b", false));
  EXPECT_FALSE(f.GetBool("c", true));
  EXPECT_FALSE(f.GetBool("d", true));
  EXPECT_TRUE(f.GetBool("e", false));
}

TEST(FlagsDeathTest, NegativeSeedExits) {
  for (const char* value : {"-1", "-42", "-9223372036854775808"}) {
    Flags f = MakeFlags({std::string("--seed=") + value});
    EXPECT_EXIT(f.Seed(), ::testing::ExitedWithCode(2), "flag --seed")
        << "value '" << value << "'";
  }
}

TEST(FlagsTest, SeedAcceptsZeroAndLargeValues) {
  EXPECT_EQ(MakeFlags({"--seed=0"}).Seed(), 0u);
  EXPECT_EQ(MakeFlags({"--seed=9223372036854775807"}).Seed(),
            uint64_t{9223372036854775807u});
}

}  // namespace
}  // namespace contender
