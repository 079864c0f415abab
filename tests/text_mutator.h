// The seeded text mutator the grammar fuzzers share (test_text_parse.cc
// over specs and fault plans, test_cli.cc over argv).
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"

namespace clic {

/// One to three seeded insertions, deletions or substitutions of a
/// digit, a letter or one of " -+.:;,=~". Half of them land where a
/// value or a token starts (just after '=', ':', ',', ';', '+' or '~'),
/// which is where the number rules and the splitters decide.
inline std::string Mutate(std::string text, Rng& rng) {
  static const std::string kAlphabet =
      "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ -+.:;,=~";
  const int edits = 1 + static_cast<int>(rng.Below(3));
  for (int e = 0; e < edits; ++e) {
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (std::string("=:,;+~").find(text[i]) != std::string::npos) {
        starts.push_back(i + 1);
      }
    }
    const std::size_t at = !starts.empty() && rng.Chance(0.5)
                               ? starts[rng.Below(starts.size())]
                               : rng.Below(text.size() + 1);
    const char c = kAlphabet[rng.Below(kAlphabet.size())];
    switch (rng.Below(3)) {
      case 0:
        text.insert(at, 1, c);
        break;
      case 1:
        if (at < text.size()) text.erase(at, 1);
        break;
      default:
        if (at < text.size()) text[at] = c;
        break;
    }
  }
  return text;
}

}  // namespace clic
