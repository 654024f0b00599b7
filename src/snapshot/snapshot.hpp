#pragma once

// Compatibility include: the snapshot codec and its one container now live
// in serialize.hpp and sections.hpp. Include those directly.

#include "snapshot/sections.hpp"
