#include "flags.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

namespace multipub::tools {
namespace {

/// Builds argv from string literals (argv[0] is the program name).
class Argv {
 public:
  explicit Argv(std::initializer_list<const char*> args) {
    strings_.emplace_back("prog");
    for (const char* a : args) strings_.emplace_back(a);
    for (auto& s : strings_) pointers_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(pointers_.size()); }
  [[nodiscard]] char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

TEST(Flags, EqualsForm) {
  Argv a({"--ratio=95", "--mode=routed"});
  Flags flags(a.argc(), a.argv());
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 0), 95.0);
  EXPECT_EQ(flags.get("mode", ""), "routed");
  EXPECT_TRUE(flags.errors().empty());
}

TEST(Flags, SpaceForm) {
  Argv a({"--ratio", "75", "--size", "2048"});
  Flags flags(a.argc(), a.argv());
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 0), 75.0);
  EXPECT_EQ(flags.get_int("size", 0), 2048);
}

TEST(Flags, BooleanForms) {
  Argv a({"--live", "--heuristic=false", "--exact-list", "--verbose", "0"});
  Flags flags(a.argc(), a.argv());
  EXPECT_TRUE(flags.get_bool("live", false));
  EXPECT_FALSE(flags.get_bool("heuristic", true));
  EXPECT_TRUE(flags.get_bool("exact-list", false));
  EXPECT_FALSE(flags.get_bool("verbose", true));
  EXPECT_TRUE(flags.get_bool("absent", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  Argv a({});
  Flags flags(a.argc(), a.argv());
  EXPECT_FALSE(flags.has("anything"));
  EXPECT_DOUBLE_EQ(flags.get_double("x", 1.5), 1.5);
  EXPECT_EQ(flags.get_int("y", 7), 7);
  EXPECT_EQ(flags.get("z", "fallback"), "fallback");
}

TEST(Flags, RangeParsing) {
  Argv a({"--sweep=100:200:4"});
  Flags flags(a.argc(), a.argv());
  const auto range = flags.get_range("sweep");
  ASSERT_TRUE(range.has_value());
  EXPECT_DOUBLE_EQ((*range)[0], 100.0);
  EXPECT_DOUBLE_EQ((*range)[1], 200.0);
  EXPECT_DOUBLE_EQ((*range)[2], 4.0);
}

TEST(Flags, MissingRangeIsNullopt) {
  Argv a({});
  Flags flags(a.argc(), a.argv());
  EXPECT_FALSE(flags.get_range("sweep").has_value());
}

TEST(Flags, MalformedNumberIsReported) {
  Argv a({"--ratio=abc"});
  Flags flags(a.argc(), a.argv());
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 50.0), 50.0);
  EXPECT_FALSE(flags.errors().empty());
}

TEST(Flags, PositionalArgumentIsReported) {
  Argv a({"oops"});
  Flags flags(a.argc(), a.argv());
  ASSERT_EQ(flags.errors().size(), 1u);
  EXPECT_NE(flags.errors()[0].find("oops"), std::string::npos);
}

TEST(Flags, LastValueWinsOnRepeat) {
  Argv a({"--seed=1", "--seed=2"});
  Flags flags(a.argc(), a.argv());
  EXPECT_EQ(flags.get_int("seed", 0), 2);
}

TEST(Flags, NegativeNumbersAsValues) {
  // A negative value is not mistaken for a flag (doesn't start with --).
  Argv a({"--offset", "-5"});
  Flags flags(a.argc(), a.argv());
  EXPECT_EQ(flags.get_int("offset", 0), -5);
}

TEST(Flags, AllowOnlyAcceptsTheDeclaredVocabulary) {
  Argv a({"--shards=4", "--fast-path", "on", "--live"});
  Flags flags(a.argc(), a.argv());
  flags.allow_only({"shards", "threads", "fast-path", "live"});
  EXPECT_TRUE(flags.errors().empty());
}

TEST(Flags, AllowOnlyRejectsUnknownFlags) {
  // The historical bug: --shard (typo for --shards) parsed fine and the
  // tool silently ran single-threaded. It must be an error now.
  Argv a({"--shard=4", "--live"});
  Flags flags(a.argc(), a.argv());
  flags.allow_only({"shards", "live"});
  ASSERT_EQ(flags.errors().size(), 1u);
  EXPECT_NE(flags.errors()[0].find("--shard"), std::string::npos);
}

TEST(Flags, AllowOnlyReportsEveryUnknownFlagInNameOrder) {
  Argv a({"--zeta=1", "--alpha=2", "--known=3"});
  Flags flags(a.argc(), a.argv());
  flags.allow_only({"known"});
  ASSERT_EQ(flags.errors().size(), 2u);
  // Deterministic order (sorted by flag name), independent of argv order.
  EXPECT_NE(flags.errors()[0].find("--alpha"), std::string::npos);
  EXPECT_NE(flags.errors()[1].find("--zeta"), std::string::npos);
}

TEST(Flags, OnOffReadersAreStrict) {
  Argv a({"--x", "off", "--y=on", "--z", "maybe", "--bare", "--w=both"});
  Flags flags(a.argc(), a.argv());
  EXPECT_FALSE(flags.get_on_off("x", true));
  EXPECT_TRUE(flags.get_on_off("y", false));
  EXPECT_TRUE(flags.get_on_off("absent", true));
  EXPECT_EQ(flags.get_on_off_both("y"), std::optional<bool>(true));
  EXPECT_EQ(flags.get_on_off_both("w"), std::nullopt);
  EXPECT_EQ(flags.get_on_off_both("absent"), std::nullopt);
  EXPECT_TRUE(flags.errors().empty());
  // Anything else — a bare boolean flag too — is an error and yields the
  // fallback.
  EXPECT_TRUE(flags.get_on_off("z", true));
  EXPECT_FALSE(flags.get_on_off("bare", false));
  EXPECT_EQ(flags.get_on_off_both("z"), std::nullopt);
  EXPECT_EQ(flags.errors(),
            (std::vector<std::string>{"--z must be 'on' or 'off'",
                                      "--bare must be 'on' or 'off'",
                                      "--z must be 'on', 'off' or 'both'"}));
}

TEST(Flags, ReadFileReturnsContentOrNothing) {
  EXPECT_FALSE(read_file("/nonexistent/flags_test", "test").has_value());
  const std::string path = ::testing::TempDir() + "flags_test_read_file.txt";
  std::ofstream(path) << "rate 5\n";
  EXPECT_EQ(read_file(path, "test"), std::optional<std::string>("rate 5\n"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace multipub::tools
