#ifndef DFLOW_TESTS_TEST_UTIL_H_
#define DFLOW_TESTS_TEST_UTIL_H_

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/schema.h"
#include "core/schema_builder.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "expr/condition.h"
#include "expr/predicate.h"

namespace dflow::test {

// A miniature version of the Figure 1 storefront flow, used across tests:
//
//   sources: expendable_income (int), cart_has_boys_item (bool), db_load (int)
//   climate        : query(2), cond true                      <- boy's module
//   hit_list       : query(3), inputs {climate}               <- boy's module
//   inventory      : query(4), inputs {hit_list},
//                    cond: db_load < 95                       <- boy's module
//   scored_promos  : query(2), inputs {inventory}             <- boy's module
//   (module "boys_coat" condition: cart_has_boys_item = true)
//   give_promo     : synthesis, inputs {scored_promos},
//                    cond: expendable_income > 0
//                    value: true iff scored_promos != null
//   assembly (target): query(1), inputs {scored_promos},
//                    cond: give_promo = true
struct PromoFlow {
  core::Schema schema;
  AttributeId income, cart_boys, db_load;
  AttributeId climate, hit_list, inventory, scored, give_promo, assembly;
};

inline PromoFlow MakePromoFlow() {
  using expr::CompareOp;
  using expr::Condition;
  using expr::Predicate;

  core::SchemaBuilder builder;
  const AttributeId income = builder.AddSource("expendable_income");
  const AttributeId cart_boys = builder.AddSource("cart_has_boys_item");
  const AttributeId db_load = builder.AddSource("db_load");

  auto fixed = [](int64_t v) {
    return [v](const core::TaskContext&) { return Value::Int(v); };
  };

  builder.BeginModule("boys_coat",
                      Condition::Pred(Predicate::IsTrue(cart_boys)));
  const AttributeId climate =
      builder.AddQuery("climate", 2, fixed(17), {income});
  const AttributeId hit_list =
      builder.AddQuery("hit_list", 3, fixed(5), {climate});
  const AttributeId inventory = builder.AddQuery(
      "inventory", 4, fixed(9), {hit_list},
      Condition::Pred(Predicate::Compare(db_load, CompareOp::kLt,
                                         Value::Int(95))));
  const AttributeId scored =
      builder.AddQuery("scored_promos", 2, fixed(88), {inventory});
  builder.EndModule();

  const AttributeId give_promo = builder.AddSynthesis(
      "give_promo",
      [scored](const core::TaskContext& ctx) {
        return Value::Bool(!ctx.input(scored).is_null());
      },
      {scored},
      Condition::Pred(
          Predicate::Compare(income, CompareOp::kGt, Value::Int(0))));

  const AttributeId assembly = builder.AddQuery(
      "assembly", 1, fixed(1), {scored},
      Condition::Pred(Predicate::IsTrue(give_promo)), /*is_target=*/true);

  std::string error;
  auto schema = builder.Build(&error);
  if (!schema.has_value()) {
    // Tests would fail loudly downstream; keep the message visible.
    throw std::runtime_error("MakePromoFlow: " + error);
  }
  return PromoFlow{std::move(*schema), income,    cart_boys, db_load,
                   climate,            hit_list,  inventory, scored,
                   give_promo,         assembly};
}

// Source bindings for the common "happy path": income 50, boys item in cart,
// db load 20 -> everything enabled, promo given.
inline core::SourceBinding HappyBindings(const PromoFlow& f) {
  return {{f.income, Value::Int(50)},
          {f.cart_boys, Value::Bool(true)},
          {f.db_load, Value::Int(20)}};
}

// Every P/N x S/C x E/C strategy at %Permitted 0, 25 and 100, plus the two
// ablations of option 'P' (each of its mechanisms alone).
inline std::vector<core::Strategy> AllStrategies() {
  std::vector<core::Strategy> out;
  for (const char* axes : {"PSE", "PSC", "PCE", "PCC", "NSE", "NSC", "NCE",
                           "NCC"}) {
    for (const char* pct : {"0", "25", "100"}) {
      out.push_back(*core::Strategy::Parse(std::string(axes) + pct));
    }
  }
  core::Strategy eager_only = *core::Strategy::Parse("PSE100");
  eager_only.unneeded_detection_override = false;
  out.push_back(eager_only);
  core::Strategy unneeded_only = *core::Strategy::Parse("PSC25");
  unneeded_only.eager_conditions_override = false;
  out.push_back(unneeded_only);
  return out;
}

}  // namespace dflow::test

#endif  // DFLOW_TESTS_TEST_UTIL_H_
