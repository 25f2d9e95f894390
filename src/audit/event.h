#ifndef AUDIT_GAME_AUDIT_EVENT_H_
#define AUDIT_GAME_AUDIT_EVENT_H_

#include <cstdint>
#include <map>
#include <string>

namespace auditgame::audit {

/// One access event committed to the database: subject (e.g. an employee)
/// touches object (e.g. a patient record). Events carry free-form string and
/// numeric attributes that alert rules predicate on — e.g. the employee and
/// patient last names for the "same last name" EMR rule, or residential
/// coordinates for the "neighbor" rule.
struct AccessEvent {
  std::string subject_id;
  std::string object_id;
  int64_t timestamp = 0;
  std::map<std::string, std::string> string_attrs;
  std::map<std::string, double> numeric_attrs;

  /// Returns the string attribute or an empty string when absent.
  const std::string& GetString(const std::string& key) const {
    static const std::string* const kEmpty = new std::string();
    auto it = string_attrs.find(key);
    return it == string_attrs.end() ? *kEmpty : it->second;
  }

  /// Returns the numeric attribute or `fallback` when absent.
  double GetNumeric(const std::string& key, double fallback = 0.0) const {
    auto it = numeric_attrs.find(key);
    return it == numeric_attrs.end() ? fallback : it->second;
  }

  bool HasNumeric(const std::string& key) const {
    return numeric_attrs.count(key) > 0;
  }
};

}  // namespace auditgame::audit

#endif  // AUDIT_GAME_AUDIT_EVENT_H_
