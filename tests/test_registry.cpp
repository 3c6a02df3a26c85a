// Tests for the name-based process registry.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/process_registry.hpp"
#include "test_support.hpp"

namespace {

using namespace nb;

TEST(Registry, EveryRegisteredKindConstructsAndSteps) {
  for (const auto& [kind, description] : registered_process_kinds()) {
    process_spec spec;
    spec.kind = kind;
    spec.n = 32;
    // A parameter value that is legal for every kind (d, g, b, tau >= 1;
    // beta, sigma in range).
    spec.param = (kind == "one-plus-beta") ? 0.5 : 2.0;
    any_process p = make_process(spec);
    rng_t rng(1);
    for (int t = 0; t < 200; ++t) p.step(rng);
    EXPECT_EQ(p.state().balls(), 200) << kind;
    EXPECT_FALSE(p.name().empty()) << kind;
    EXPECT_FALSE(description.empty()) << kind;
  }
}

TEST(Registry, UnknownKindThrows) {
  process_spec spec;
  spec.kind = "three-and-a-half-choice";
  spec.n = 8;
  EXPECT_THROW(make_process(spec), contract_error);
}

TEST(Registry, RejectsZeroBins) {
  process_spec spec;
  spec.kind = "two-choice";
  spec.n = 0;
  EXPECT_THROW(make_process(spec), contract_error);
}

TEST(Registry, ValidatesIntegerParameters) {
  process_spec spec;
  spec.n = 8;
  spec.kind = "g-bounded";
  spec.param = 2.5;  // g must be integral
  EXPECT_THROW(make_process(spec), contract_error);
  spec.param = -1.0;
  EXPECT_THROW(make_process(spec), contract_error);
  spec.kind = "b-batch";
  spec.param = 0.0;  // b must be >= 1
  EXPECT_THROW(make_process(spec), contract_error);

  // Values past the target integer type are range-checked before the cast,
  // and the error names the kind and the value.
  const auto rejection = [&](const std::string& kind, double param) {
    spec.kind = kind;
    spec.param = param;
    try {
      static_cast<void>(make_process(spec));
    } catch (const contract_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const std::string g_too_big = rejection("g-bounded", 5e9);
  EXPECT_NE(g_too_big.find("g-bounded"), std::string::npos) << g_too_big;
  EXPECT_NE(g_too_big.find("5000000000"), std::string::npos) << g_too_big;
  const std::string b_too_big = rejection("b-batch", 1e30);
  EXPECT_NE(b_too_big.find("b-batch"), std::string::npos) << b_too_big;
  EXPECT_NE(b_too_big.find("e+30"), std::string::npos) << b_too_big;
  const std::string d_too_big = rejection("d-choice", 4294967297.0);
  EXPECT_NE(d_too_big.find("d-choice"), std::string::npos) << d_too_big;
  EXPECT_NE(d_too_big.find("4294967297"), std::string::npos) << d_too_big;
  EXPECT_NE(rejection("tau-delay", std::nan("")), "accepted");
  EXPECT_NE(rejection("mean-thinning", -0.5), "accepted");

  // The largest value of each type is still accepted.
  spec.kind = "g-bounded";
  spec.param = 2147483647.0;
  EXPECT_EQ(make_process(spec).name(), g_bounded(8, 2147483647).name());
  spec.kind = "d-choice";
  EXPECT_EQ(make_process(spec).name(), "2147483647-choice");
}

TEST(Registry, ValidatesBeta) {
  process_spec spec;
  spec.n = 8;
  spec.kind = "one-plus-beta";
  spec.param = 1.5;
  EXPECT_THROW(make_process(spec), contract_error);
}

TEST(Registry, ProcessesMatchDirectConstruction) {
  process_spec spec;
  spec.kind = "g-myopic";
  spec.n = 64;
  spec.param = 3.0;
  any_process from_registry = make_process(spec);
  g_myopic_comp direct(64, 3);
  rng_t a(7);
  rng_t b(7);
  for (int t = 0; t < 2000; ++t) {
    from_registry.step(a);
    direct.step(b);
  }
  EXPECT_EQ(from_registry.state().loads(), direct.state().loads());
  EXPECT_EQ(from_registry.name(), direct.name());
}

TEST(Registry, KindListHasNoDuplicates) {
  const auto kinds = registered_process_kinds();
  std::set<std::string> seen;
  for (const auto& [kind, desc] : kinds) {
    EXPECT_TRUE(seen.insert(kind).second) << "duplicate kind " << kind;
  }
  EXPECT_GE(kinds.size(), 15u);
}

}  // namespace
