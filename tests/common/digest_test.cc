// The golden-digest hash (tests/testutil.h) must see every change the
// golden tests exist to catch: the smallest change to a delivery time, one
// extra billed byte, a reordering, and an element moving from one vector to
// the next.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "testutil.h"

namespace multipub::testutil {
namespace {

TEST(DigestTest, OneUlpInOneDeliveryTimeChangesTheDigest) {
  const std::vector<Millis> times{150.25, 87.5, 310.0};
  std::vector<Millis> nudged = times;
  nudged[1] = std::nextafter(nudged[1], 1e9);
  EXPECT_NE(Digest().add(times).value(), Digest().add(nudged).value());
}

TEST(DigestTest, OneExtraLedgerByteChangesTheDigest) {
  const std::vector<Bytes> ledger{4096, 0, 1024};
  std::vector<Bytes> billed = ledger;
  ++billed[2];
  EXPECT_NE(Digest().add(ledger).value(), Digest().add(billed).value());
}

TEST(DigestTest, SwappingTwoElementsChangesTheDigest) {
  const std::vector<Bytes> ledger{4096, 0, 1024};
  const std::vector<Bytes> swapped{1024, 0, 4096};
  EXPECT_NE(Digest().add(ledger).value(), Digest().add(swapped).value());
}

TEST(DigestTest, MovingAnElementAcrossAVectorBoundaryChangesTheDigest) {
  const std::vector<Millis> a{1.0}, b{2.0}, c{3.0};
  const std::vector<Millis> ab{1.0, 2.0}, bc{2.0, 3.0};
  EXPECT_NE(Digest().add(ab).add(c).value(), Digest().add(a).add(bc).value());
  // Strings carry their length too.
  EXPECT_NE(Digest().add("ab").add("c").value(),
            Digest().add("a").add("bc").value());
}

TEST(DigestTest, EqualStreamsHashEqually) {
  const std::vector<Millis> times{150.25, 87.5};
  EXPECT_EQ(Digest().add(times).add(Bytes{7}).value(),
            Digest().add(times).add(Bytes{7}).value());
  EXPECT_NE(Digest().value(), Digest().add(Bytes{0}).value());
}

}  // namespace
}  // namespace multipub::testutil
