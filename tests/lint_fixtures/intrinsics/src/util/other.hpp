// Another util file: the layer's module is no exemption.
#pragma once

inline int other_value() { return _mm_popcnt_u64(3); }
