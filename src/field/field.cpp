#include "field/field.hpp"

#ifdef SIMAS_ELEMENT_SHADOW
#include "analysis/validator.hpp"
#endif

namespace simas::field {

Field::Field(par::Engine& engine, std::string name, idx n1, idx n2, idx n3,
             idx nghost, gpusim::ScaleClass scale, bool derived_type_member)
    : engine_(engine), name_(std::move(name)), a_(n1, n2, n3, nghost) {
  id_ = engine_.memory().register_array(name_, a_.bytes(), scale,
                                        derived_type_member);
#ifdef SIMAS_ELEMENT_SHADOW
  if (analysis::Validator* v = engine_.validator()) {
    a_.set_shadow(
        v->attach_shadow(id_, static_cast<std::size_t>(a_.size())));
  }
#endif
}

Field::~Field() {
#ifdef SIMAS_ELEMENT_SHADOW
  if (analysis::Validator* v = engine_.validator()) {
    a_.set_shadow(nullptr);
    v->detach_shadow(id_);
  }
#endif
  engine_.memory().unregister_array(id_);
}

}  // namespace simas::field
