// Reproduces paper Table II: the distribution of OpenACC directive types in
// the original GPU branch (Code 1), derived for SIMAS from its kernel-site
// inventory, printed next to the paper's MAS counts.

#include <iostream>

#include "util/table.hpp"
#include "variants/directive_model.hpp"
#include "variants/inventory.hpp"

using namespace simas;

int main() {
  const variants::CodeInventory inv = variants::canonical_inventory();

  const auto d = variants::directives_for(inv, variants::CodeVersion::A);
  const auto paper = variants::paper_table2();

  std::cout << "Table II reproduction: OpenACC directives in Code 1 (A)\n\n";
  Table table("directive type distribution");
  table.set_header({"directive type", "SIMAS lines", "SIMAS %",
                    "paper lines", "paper %"});
  const double total = static_cast<double>(d.total());
  const double ptotal = 1458.0;
  auto add = [&](const std::string& name, i64 ours, i64 theirs) {
    table.row()
        .cell(name)
        .cell(ours)
        .cell(100.0 * ours / total, 1)
        .cell(theirs)
        .cell(100.0 * theirs / ptotal, 1);
  };
  add("parallel, loop", d.parallel_loop, paper[0].lines);
  add("data management", d.data, paper[1].lines);
  add("atomic", d.atomic, paper[2].lines);
  add("routine", d.routine, paper[3].lines);
  add("kernels", d.kernels, paper[4].lines);
  add("wait", d.wait, paper[5].lines);
  add("set device_num", d.set_device, paper[6].lines);
  add("continuation (!$acc&)", d.continuation, paper[7].lines);
  table.row().cell(std::string("Total")).cell(d.total()).cell(100.0, 1)
      .cell(static_cast<long long>(1458)).cell(100.0, 1);
  table.print(std::cout);

  std::cout << "\ninventory: " << inv.parallel_loops << " parallel loops, "
            << inv.scalar_reductions << " scalar reductions, "
            << inv.array_reductions << " array reductions, "
            << inv.intrinsic_kernels << " kernels-style regions, "
            << inv.routine_sites << " routine-calling loops, "
            << inv.persistent_arrays << " device-resident arrays\n";
  return 0;
}
