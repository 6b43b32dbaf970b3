// Clean fixture stub.
#include "src/sim/types.h"
struct CleanMmuH {};
