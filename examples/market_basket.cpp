// Market-basket comparison: run the support-confidence framework (Apriori
// + rule generation) and the chi-squared correlation framework side by
// side on Quest synthetic data, showing where the two disagree — the heart
// of the paper's argument.

#include <algorithm>
#include <iostream>
#include <set>
#include <string>

#include "core/chi_squared_miner.h"
#include "datagen/quest_generator.h"
#include "io/table_printer.h"
#include "itemset/count_provider.h"
#include "mining/apriori.h"
#include "mining/association_rules.h"

int main() {
  using namespace corrmine;

  datagen::QuestOptions quest;
  quest.num_transactions = 20000;
  quest.num_items = 300;
  quest.avg_transaction_size = 12.0;
  quest.num_patterns = 60;
  auto db = datagen::GenerateQuestData(quest);
  if (!db.ok()) {
    std::cerr << db.status().ToString() << "\n";
    return 1;
  }
  std::cout << "quest data: " << db->num_baskets() << " baskets, "
            << db->num_items() << " items\n\n";
  BitmapCountProvider provider(*db);

  // --- Support-confidence framework. ---
  AprioriOptions apriori_options;
  apriori_options.min_support_fraction = 0.02;
  auto frequent =
      MineFrequentItemsets(provider, db->num_items(), apriori_options);
  if (!frequent.ok()) {
    std::cerr << frequent.status().ToString() << "\n";
    return 1;
  }
  RuleOptions rule_options;
  rule_options.min_confidence = 0.6;
  auto rules =
      GenerateAssociationRules(*frequent, db->num_baskets(), rule_options);
  if (!rules.ok()) {
    std::cerr << rules.status().ToString() << "\n";
    return 1;
  }
  std::cout << "support-confidence: " << frequent->size()
            << " frequent itemsets, " << rules->size()
            << " rules at confidence >= " << rule_options.min_confidence
            << "\n\n";

  // --- Correlation framework on the same data. ---
  MinerOptions miner;
  miner.support.min_count = static_cast<uint64_t>(
      apriori_options.min_support_fraction *
      static_cast<double>(db->num_baskets()));
  miner.support.cell_fraction = 0.25 + 1e-9;
  miner.max_level = 3;
  auto correlations = MineCorrelations(provider, db->num_items(), miner);
  if (!correlations.ok()) {
    std::cerr << correlations.status().ToString() << "\n";
    return 1;
  }
  std::cout << "correlation rules: " << correlations->significant.size()
            << " minimal correlated itemsets\n\n";

  // --- Where the frameworks disagree. ---
  std::set<Itemset> correlated;
  for (const CorrelationRule& rule : correlations->significant) {
    correlated.insert(rule.itemset);
  }
  // High-confidence pairs that are NOT correlated: the "tea => coffee"
  // trap from the paper's Example 1.
  int misleading = 0;
  for (const AssociationRule& rule : *rules) {
    if (rule.antecedent.size() != 1 || rule.consequent.size() != 1) continue;
    Itemset pair = rule.antecedent.Union(rule.consequent);
    if (!correlated.count(pair)) ++misleading;
  }
  std::cout << misleading
            << " single-item rules pass support+confidence but are NOT "
               "statistically correlated\n(confidence without correlation "
               "— the paper's Example 1 trap).\n";

  // Correlated pairs the rule framework never surfaces (negative
  // dependence or sub-confidence structure).
  int invisible = 0;
  for (const Itemset& pair : correlated) {
    if (pair.size() != 2) continue;
    bool surfaced = false;
    for (const AssociationRule& rule : *rules) {
      if (rule.antecedent.Union(rule.consequent) == pair) {
        surfaced = true;
        break;
      }
    }
    if (!surfaced) ++invisible;
  }
  std::cout << invisible
            << " correlated pairs never appear as confident rules "
               "(correlation without confidence).\n";
  return 0;
}
